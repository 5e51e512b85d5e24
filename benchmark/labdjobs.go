package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	_ "repro/internal/experiments" // registers the scenarios labd serves
	"repro/internal/labd"
	"repro/internal/scenario"
)

// labdScenario is a quick scenario small enough (≈ 0.15 ms) that the
// service around it is what the op costs.
const labdScenario = "rstinject"

// labdSystem is a labd server behind an HTTP test listener with one
// client on one connection.
type labdSystem struct {
	traced
	srv    *labd.Server
	ts     *httptest.Server
	client *labd.Client
	spec   labd.JobSpec
	// want is the scenario's metrics from an in-process run of the same
	// spec, computed on the first op.
	want map[string]float64

	// Per-job samples of the traced window.
	queueMs, execMs, overheadMs, events, resultBytes []float64
}

func setupLabd(seed int64, tr *tracer) (system, error) {
	overlay, err := json.Marshal(map[string]int64{"Seed": seed})
	if err != nil {
		return nil, err
	}
	s := &labdSystem{spec: labd.JobSpec{
		Scenarios: []string{labdScenario}, Quick: true,
		Configs: map[string]json.RawMessage{labdScenario: overlay},
	}}
	s.tr = tr
	sp := tr.begin("labd.new")
	s.srv = labd.New(labd.Config{Workers: 2})
	tr.end(sp)
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = labd.NewClient(s.ts.URL)
	s.client.HTTPClient = s.ts.Client()
	return s, nil
}

func (s *labdSystem) close() {
	s.ts.Close()
	s.srv.Close()
}

// reference runs the job's suite in-process, with no service around it.
func (s *labdSystem) reference() (*scenario.Report, error) {
	res, err := scenario.RunSuite(context.Background(), s.spec.Scenarios,
		scenario.SuiteOptions{Quick: s.spec.Quick, Configs: s.spec.Configs})
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	return res.Outcomes[0].Report, nil
}

// op submits one job and waits for it to finish.
func (s *labdSystem) op() error {
	if s.want == nil {
		rep, err := s.reference()
		if err != nil {
			return err
		}
		s.want = rep.Metrics
	}
	tr := s.tr
	ctx := context.Background()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	sp := tr.begin("labd.submit")
	st, err := s.client.Submit(ctx, s.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("labd.wait")
	fin, err := s.client.Wait(ctx, st.ID, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	if fin.State != labd.StateDone || fin.Result == nil || len(fin.Result.Outcomes) != 1 || fin.Result.Outcomes[0].Report == nil {
		return fmt.Errorf("job %s: state %s, no single report", fin.ID, fin.State)
	}
	rep := fin.Result.Outcomes[0].Report
	if len(rep.Metrics) != len(s.want) {
		return fmt.Errorf("job %s: %d metrics, the in-process run has %d", fin.ID, len(rep.Metrics), len(s.want))
	}
	for name, v := range s.want {
		if got, ok := rep.Metrics[name]; !ok || got != v {
			return fmt.Errorf("job %s: metric %s = %v, the in-process run gives %v", fin.ID, name, got, v)
		}
	}
	if tr != nil && fin.StartedAt != nil && fin.FinishedAt != nil {
		opMs := float64(time.Since(t0)) / 1e6
		s.queueMs = append(s.queueMs, float64(fin.StartedAt.Sub(fin.CreatedAt))/1e6)
		s.execMs = append(s.execMs, float64(fin.FinishedAt.Sub(*fin.StartedAt))/1e6)
		s.overheadMs = append(s.overheadMs, opMs-rep.WallSeconds*1e3)
		s.events = append(s.events, float64(fin.Events))
		s.resultBytes = append(s.resultBytes, float64(len(fin.RawResult)))
	}
	return nil
}

// digest is the reference run's metrics; every job matched them.
func (s *labdSystem) digest() (string, error) {
	if s.want == nil {
		return "", fmt.Errorf("no op completed")
	}
	data, err := json.Marshal(s.want)
	return string(data), err
}

func (s *labdSystem) layers(tr *tracer, probe time.Duration, m map[string]float64) error {
	p50 := func(v []float64) float64 {
		sort.Float64s(v)
		return quantile(v, 0.5)
	}
	m["labd.submit_ms_p50"] = quantile(tr.durations("labd.submit"), 0.5) / 1e6
	m["labd.wait_ms_p50"] = quantile(tr.durations("labd.wait"), 0.5) / 1e6
	m["labd.new_us"] = quantile(tr.durations("labd.new"), 0.5) / 1e3
	m["labd.queue_ms_p50"] = p50(s.queueMs)
	m["labd.exec_ms_p50"] = p50(s.execMs)
	m["labd.overhead_ms_p50"] = p50(s.overheadMs)
	m["labd.events_per_job"] = mean(s.events)
	m["labd.result_bytes_per_job"] = mean(s.resultBytes)
	direct, err := timeP50(probe, 20, func() error {
		_, err := s.reference()
		return err
	})
	if err != nil {
		return err
	}
	m["scenario.run_ms_p50"] = direct / 1e6
	return nil
}
