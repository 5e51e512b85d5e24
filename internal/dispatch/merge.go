package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// MergeUnits reassembles per-unit results into the result a
// single-process run over names would have produced: unit j carries
// exactly the single outcome of names[j], and the merged document splices
// each unit's raw outcome bytes back together in suite order, so -o
// artifacts stay byte-identical to single-backend runs (modulo measured
// wall time). The merge is deterministic and refuses anything that would
// make it not so: a scenario covered twice or never, a unit that ran the
// wrong scenario, quick and full results mixed (for the same reason quick
// and full snapshots never diff). A fail-fast-skipped unit contributes
// the same skipped outcome a local fail-fast run would have recorded.
func MergeUnits(names []string, units []UnitRun) (*scenario.SuiteResult, json.RawMessage, error) {
	if len(units) != len(names) {
		return nil, nil, fmt.Errorf("dispatch: merge of %d unit(s) over %d scenario(s)", len(units), len(names))
	}
	byIndex := make([]*UnitRun, len(names))
	for i := range units {
		u := &units[i]
		if u.Index < 0 || u.Index >= len(names) {
			return nil, nil, fmt.Errorf("dispatch: unit index %d out of range [0,%d)", u.Index, len(names))
		}
		if byIndex[u.Index] != nil {
			return nil, nil, fmt.Errorf("dispatch: overlapping units: scenario %q covered twice (%s and %s)",
				names[u.Index], byIndex[u.Index].Backend, u.Backend)
		}
		if u.Scenario != names[u.Index] {
			return nil, nil, fmt.Errorf("dispatch: unit %d is %q, suite order expects %q",
				u.Index, u.Scenario, names[u.Index])
		}
		byIndex[u.Index] = u
	}
	quick, quickSet := false, false
	for j, u := range byIndex {
		if u == nil {
			return nil, nil, fmt.Errorf("dispatch: scenario %q has no unit", names[j])
		}
		if u.Skipped {
			continue
		}
		if u.Result == nil {
			return nil, nil, fmt.Errorf("dispatch: unit %s has no result", u.Scenario)
		}
		if len(u.Result.Outcomes) != 1 || u.Result.Outcomes[0].Scenario != u.Scenario {
			return nil, nil, fmt.Errorf("dispatch: unit %s carries %d outcome(s), want exactly its own scenario",
				u.Scenario, len(u.Result.Outcomes))
		}
		if !quickSet {
			quick, quickSet = u.Result.Quick, true
		} else if u.Result.Quick != quick {
			return nil, nil, fmt.Errorf("dispatch: merging quick and full units (unit %s quick=%v)",
				u.Scenario, u.Result.Quick)
		}
	}

	merged := &scenario.SuiteResult{Outcomes: make([]scenario.Outcome, len(names)), Quick: quick}
	var buf bytes.Buffer
	buf.WriteString(`{"outcomes":[`)
	for j, u := range byIndex {
		var out scenario.Outcome
		var raw json.RawMessage
		if u.Skipped {
			out = scenario.Outcome{Scenario: u.Scenario, Skipped: true}
			data, err := json.Marshal(out)
			if err != nil {
				return nil, nil, fmt.Errorf("dispatch: marshaling skipped unit %s: %w", u.Scenario, err)
			}
			raw = data
		} else {
			out = u.Result.Outcomes[0]
			raws, err := splitRaw(u.Raw, u.Result.Outcomes)
			if err != nil {
				return nil, nil, fmt.Errorf("dispatch: unit %s: %w", u.Scenario, err)
			}
			raw = raws[0]
		}
		merged.Outcomes[j] = out
		if out.Skipped {
			merged.Skipped++
		} else if out.Error != "" {
			merged.Failed++
		}
		if j > 0 {
			buf.WriteByte(',')
		}
		buf.Write(raw)
	}
	fmt.Fprintf(&buf, `],"failed":%d,"skipped":%d`, merged.Failed, merged.Skipped)
	if quick {
		buf.WriteString(`,"quick":true`)
	}
	buf.WriteByte('}')
	return merged, json.RawMessage(buf.Bytes()), nil
}

// splitRaw extracts each outcome's exact bytes from a raw SuiteResult
// document. A run with no raw bytes (an in-process result) falls back
// to marshaling the typed outcomes — key order matches the struct, so
// the splice stays canonical.
func splitRaw(raw json.RawMessage, outcomes []scenario.Outcome) ([]json.RawMessage, error) {
	if len(raw) == 0 {
		raws := make([]json.RawMessage, len(outcomes))
		for k := range outcomes {
			data, err := json.Marshal(outcomes[k])
			if err != nil {
				return nil, fmt.Errorf("marshaling outcome %d: %w", k, err)
			}
			raws[k] = data
		}
		return raws, nil
	}
	var wire struct {
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("parsing raw result: %w", err)
	}
	if len(wire.Outcomes) != len(outcomes) {
		return nil, fmt.Errorf("raw result has %d outcome(s), typed result %d",
			len(wire.Outcomes), len(outcomes))
	}
	return wire.Outcomes, nil
}
