package rl

import (
	"context"
	"testing"
)

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, DefaultConfig()); err == nil {
		t.Error("empty action set should fail")
	}
	a, err := NewAgent([]int{3, 1, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := a.Tunnels()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Tunnels = %v, want sorted [1 2 3]", got)
	}
}

func TestObserveBuckets(t *testing.T) {
	a, err := NewAgent([]int{1, 2}, Config{Buckets: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	caps := map[int]float64{1: 20, 2: 10}
	s, err := a.Observe(map[int]float64{1: 20, 2: 0}, caps)
	if err != nil {
		t.Fatal(err)
	}
	if s != "3|0" {
		t.Errorf("state = %q, want 3|0", s)
	}
	s, _ = a.Observe(map[int]float64{1: 10, 2: 5}, caps)
	if s != "2|2" {
		t.Errorf("state = %q, want 2|2", s)
	}
	// Out-of-range values clamp.
	s, _ = a.Observe(map[int]float64{1: 999, 2: -5}, caps)
	if s != "3|0" {
		t.Errorf("clamped state = %q, want 3|0", s)
	}
	if _, err := a.Observe(map[int]float64{1: 1}, caps); err == nil {
		t.Error("missing tunnel availability should fail")
	}
	if _, err := a.Observe(map[int]float64{1: 1, 2: 1}, map[int]float64{1: 20}); err == nil {
		t.Error("missing capacity should fail")
	}
}

func TestQUpdateMovesTowardReward(t *testing.T) {
	a, err := NewAgent([]int{1, 2}, Config{Buckets: 2, LearningRate: 0.5, Discount: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := State("1|1")
	if err := a.Update(s, 2, 10, State("0|0")); err != nil {
		t.Fatal(err)
	}
	v, err := a.QValue(s, 2)
	if err != nil || v != 5 { // 0 + 0.5·(10 − 0)
		t.Errorf("QValue = %v, %v; want 5", v, err)
	}
	if err := a.Update(s, 2, 10, State("0|0")); err != nil {
		t.Fatal(err)
	}
	v, _ = a.QValue(s, 2)
	if v != 7.5 {
		t.Errorf("QValue after second update = %v, want 7.5", v)
	}
	if err := a.Update(s, 99, 1, s); err == nil {
		t.Error("unknown action should fail")
	}
	if _, err := a.QValue(s, 99); err == nil {
		t.Error("unknown action lookup should fail")
	}
}

func TestGreedyChoiceFollowsQ(t *testing.T) {
	a, _ := NewAgent([]int{1, 2, 3}, Config{Buckets: 2, Epsilon: 0, Seed: 1})
	s := State("1|1|1")
	_ = a.Update(s, 2, 100, s)
	if got := a.ChooseTunnel(s, false); got != 2 {
		t.Errorf("greedy choice = %d, want 2", got)
	}
	// Unvisited state ties → lowest tunnel.
	if got := a.ChooseTunnel(State("0|0|0"), false); got != 1 {
		t.Errorf("tie-break choice = %d, want 1", got)
	}
}

func TestTrainingLearnsToSpreadFlows(t *testing.T) {
	env, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	caps := env.Capacities()
	if caps[1] != 20 || caps[2] != 10 || caps[3] != 5 {
		t.Fatalf("capacities = %v", caps)
	}

	agent, err := NewAgent([]int{1, 2, 3}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Train(agent, 80); err != nil {
		t.Fatal(err)
	}
	if agent.States() == 0 {
		t.Fatal("agent visited no states")
	}

	trained, _, err := env.Evaluate(context.Background(), PolicyChooser(agent, caps))
	if err != nil {
		t.Fatal(err)
	}
	random, _, err := env.Evaluate(context.Background(), RandomChooser([]int{1, 2, 3}, 99))
	if err != nil {
		t.Fatal(err)
	}
	greedy, _, err := env.Evaluate(context.Background(), GreedyChooser())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total throughput: trained=%.1f greedy=%.1f random=%.1f", trained, greedy, random)
	// The learned policy must clearly beat random placement and reach at
	// least 85% of the reactive-greedy heuristic.
	if trained <= random {
		t.Errorf("trained (%v) should beat random (%v)", trained, random)
	}
	if trained < 0.85*greedy {
		t.Errorf("trained (%v) should reach ≥ 85%% of greedy (%v)", trained, greedy)
	}
}

func TestEvaluateRejectsBadPolicy(t *testing.T) {
	env, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Evaluate(context.Background(), func(map[int]float64) (int, error) { return 42, nil }); err == nil {
		t.Error("policy choosing unknown tunnel should fail")
	}
	if err := env.Train(nil2Agent(t), 0); err == nil {
		t.Error("zero episodes should fail")
	}
}

func nil2Agent(t *testing.T) *Agent {
	t.Helper()
	a, err := NewAgent([]int{1, 2, 3}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestChooserBaselines(t *testing.T) {
	g := GreedyChooser()
	id, err := g(map[int]float64{1: 3, 2: 9, 3: 9})
	if err != nil || id != 2 {
		t.Errorf("greedy = %d, %v; want 2 (tie toward lower id)", id, err)
	}
	if _, err := g(nil); err == nil {
		t.Error("greedy with no tunnels should fail")
	}
	r := RandomChooser([]int{1, 2, 3}, 5)
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		id, err := r(nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Errorf("random chooser not random: %v", seen)
	}
	empty := RandomChooser(nil, 5)
	if _, err := empty(nil); err == nil {
		t.Error("random with no tunnels should fail")
	}
}
