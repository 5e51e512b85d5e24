package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/labd"
	"repro/internal/scenario"
)

// Remote mode: with -addr, runSuite submits the work to a labd daemon
// as a job over the /v1 API instead of executing in-process — same
// flags, same artifacts, same exit codes. Result artifacts are written by
// splicing the daemon's exact result bytes (never a decode/re-encode
// round trip), so `labctl run X -o out.json` produces byte-identical
// documents either way, modulo measured wall time.

// remoteJobSpec resolves the shared flags into a job submission — the
// remote counterpart of the SuiteOptions wiring in runSuite.
func remoteJobSpec(names []string, rf runFlags) (labd.JobSpec, error) {
	configs, err := loadConfigs(rf.configPath)
	if err != nil {
		return labd.JobSpec{}, err
	}
	shard, err := parseShard(rf.shard)
	if err != nil {
		return labd.JobSpec{}, err
	}
	return labd.JobSpec{
		Scenarios:  names,
		Quick:      rf.quick,
		Parallel:   rf.parallel,
		FailFast:   rf.failFast,
		TimeoutSec: rf.timeout.Seconds(),
		ShardIndex: shard.Index,
		ShardCount: shard.Count,
		Configs:    configs,
	}, nil
}

// submitAndWait submits one job and blocks until it is terminal,
// streaming progress events to errOut with -v. An interrupt (canceled
// ctx) cancels the remote job best-effort before returning, so Ctrl-C
// behaves like the in-process path. A *labd.JobError is returned next
// to the final status, so callers see both the failure message and any
// attached per-scenario outcomes.
func submitAndWait(ctx context.Context, errOut io.Writer, rf runFlags, spec labd.JobSpec) (*labd.JobStatus, error) {
	c := labd.NewClient(rf.addr)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	var onEvent func(labd.Event)
	if rf.verbose {
		fmt.Fprintf(errOut, "job %s submitted to %s\n", st.ID, rf.addr)
		onEvent = func(ev labd.Event) { renderEvent(errOut, ev) }
	}
	final, err := c.Wait(ctx, st.ID, onEvent)
	if err != nil && ctx.Err() != nil {
		cctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		_, _ = c.Cancel(cctx, st.ID)
	}
	return final, err
}

// renderEvent prints one remote progress event in the same form local
// -v uses.
func renderEvent(w io.Writer, ev labd.Event) {
	renderProgress(w, ev.Scenario, ev.Phase, ev.Message)
}

// remoteSuite runs one suite-shaped job remotely and hands back both the
// typed result (for rendering and exit codes) and the daemon's raw
// result bytes (for artifact splicing). Job-level failures that never
// produced a result — pre-flight errors, cancellations before work —
// surface as errors, mirroring RunSuite's contract.
func remoteSuite(ctx context.Context, names []string, rf runFlags, errOut io.Writer) (*scenario.SuiteResult, json.RawMessage, error) {
	spec, err := remoteJobSpec(names, rf)
	if err != nil {
		return nil, nil, err
	}
	st, err := submitAndWait(ctx, errOut, rf, spec)
	var jerr *labd.JobError
	if errors.As(err, &jerr) && jerr.State == labd.StateFailed && st != nil && st.Result != nil {
		// The suite ran and some scenarios failed: the per-scenario
		// outcomes carry the detail, same as a local failing run.
		return st.Result, st.RawResult, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if st.Result == nil {
		return nil, nil, fmt.Errorf("job %s %s with no result attached", st.ID, st.State)
	}
	return st.Result, st.RawResult, nil
}

// rawReports extracts each outcome's exact report bytes from a raw
// SuiteResult document.
func rawReports(rawResult json.RawMessage) ([]json.RawMessage, error) {
	var wire struct {
		Outcomes []struct {
			Report json.RawMessage `json:"report"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(rawResult, &wire); err != nil {
		return nil, fmt.Errorf("parsing daemon result: %w", err)
	}
	out := make([]json.RawMessage, 0, len(wire.Outcomes))
	for _, o := range wire.Outcomes {
		if len(o.Report) > 0 {
			out = append(out, o.Report)
		}
	}
	return out, nil
}

// joinRawArray builds a JSON array from raw elements without re-encoding
// them.
func joinRawArray(raws []json.RawMessage) json.RawMessage {
	parts := make([]string, len(raws))
	for i, r := range raws {
		parts[i] = string(r)
	}
	return json.RawMessage("[" + strings.Join(parts, ",") + "]")
}
