package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dispatch"
	"repro/internal/scenario"
)

// Dispatch mode: with -addrs a,b,c (or -addrs-file), runSuite fans the
// request out across a fleet of labd daemons instead of submitting to a
// single one — the dispatcher (internal/dispatch) probes /v1/healthz,
// queues the suite as scenario-granular work units that per-backend
// pullers drain (fast backends take more; a dying or busy backend spills
// back only its in-flight unit), and merges the per-unit results back
// into the exact artifact a single run would have written. Flags,
// artifacts, and exit codes match -addr mode; -shard is rejected because
// the fleet divides the suite itself.

// dispatchMode reports whether a backend fleet was given.
func (rf runFlags) dispatchMode() bool { return rf.addrs != "" || rf.addrsFile != "" }

// backendList resolves -addrs/-addrs-file into the backend addresses.
func backendList(rf runFlags) ([]string, error) {
	if rf.addr != "" {
		return nil, fmt.Errorf("-addr and -addrs are mutually exclusive (one daemon or a fleet, not both)")
	}
	if rf.addrs != "" && rf.addrsFile != "" {
		return nil, fmt.Errorf("-addrs and -addrs-file are mutually exclusive")
	}
	var fields []string
	if rf.addrs != "" {
		fields = strings.Split(rf.addrs, ",")
	} else {
		data, err := os.ReadFile(rf.addrsFile)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			fields = append(fields, strings.FieldsFunc(line, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\t' || r == '\r'
			})...)
		}
	}
	var addrs []string
	for _, f := range fields {
		if f = strings.TrimSpace(f); f != "" {
			addrs = append(addrs, f)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no backend addresses in %s", orFlag(rf))
	}
	return addrs, nil
}

func orFlag(rf runFlags) string {
	if rf.addrsFile != "" {
		return rf.addrsFile
	}
	return "-addrs"
}

// dispatchSuite runs one suite-shaped request across the fleet — the
// dispatch counterpart of remoteSuite.
func dispatchSuite(ctx context.Context, names []string, rf runFlags, errOut io.Writer) (*scenario.SuiteResult, json.RawMessage, error) {
	addrs, err := backendList(rf)
	if err != nil {
		return nil, nil, err
	}
	if rf.shard != "" {
		return nil, nil, fmt.Errorf("-shard cannot combine with -addrs: the dispatcher owns the shard slice (one scenario per work unit)")
	}
	// The same flag-to-spec wiring -addr mode uses; rf.shard is empty
	// here, so the spec's shard fields stay zero for the dispatcher.
	spec, err := remoteJobSpec(names, rf)
	if err != nil {
		return nil, nil, err
	}
	opts := dispatch.Options{Spec: spec}
	if rf.verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(errOut, format+"\n", args...)
		}
		opts.OnEvent = func(ev dispatch.Event) {
			fmt.Fprintf(errOut, "[%s @ %s] ", ev.Shard, ev.Backend)
			renderProgress(errOut, ev.Event.Scenario, ev.Event.Phase, ev.Event.Message)
		}
	}
	dres, err := dispatch.Run(ctx, addrs, opts)
	if err != nil {
		return nil, nil, err
	}
	return dres.Suite, dres.Raw, nil
}
