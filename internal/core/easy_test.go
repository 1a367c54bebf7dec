package core

import "testing"

// TestEASYDominatesFCFS: at a load beyond plain GS's saturation point,
// GS-EASY must remain stable with a far lower mean response time.
func TestEASYDominatesFCFS(t *testing.T) {
	spec := testSpec(t, 16, 4)
	run := func(policy string) Result {
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         spec,
			Policy:       policy,
			WarmupJobs:   500,
			MeasureJobs:  8000,
			Seed:         17,
		}
		res, err := RunAtUtilization(cfg, 0.65) // beyond GS's ~0.60 maximum
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gs, easy := run("GS"), run("GS-EASY")
	if !gs.Saturated {
		t.Log("note: GS unexpectedly stable at 0.65")
	}
	if easy.Saturated {
		t.Error("GS-EASY saturated at 0.65; backfilling should absorb this load")
	}
	if easy.MeanResponse >= gs.MeanResponse {
		t.Errorf("GS-EASY %g should beat GS %g at 0.65", easy.MeanResponse, gs.MeanResponse)
	}
}

// TestSCEASYMaximalUtilization: EASY removes nearly all of SC's
// head-of-line waste under constant backlog.
func TestSCEASYMaximalUtilization(t *testing.T) {
	spec := testSpec(t, 16, 1)
	run := func(policy string) BacklogResult {
		res, err := RunBacklog(BacklogConfig{
			ClusterSizes: []int{128},
			Spec:         spec,
			Policy:       policy,
			WarmupTime:   20000,
			MeasureTime:  150000,
			Seed:         2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sc, easy := run("SC"), run("SC-EASY")
	if easy.MaxGrossUtilization <= sc.MaxGrossUtilization+0.05 {
		t.Errorf("SC-EASY max %0.3f should clearly beat SC %0.3f",
			easy.MaxGrossUtilization, sc.MaxGrossUtilization)
	}
	if easy.MaxGrossUtilization < 0.8 {
		t.Errorf("SC-EASY max %0.3f implausibly low", easy.MaxGrossUtilization)
	}
}

// TestSCEASYValidation: SC-EASY requires a single cluster.
func TestSCEASYValidation(t *testing.T) {
	cfg := Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "SC-EASY",
		ArrivalRate:  0.01,
	}
	cfg.applyDefaults()
	if err := cfg.Validate(); err == nil {
		t.Error("SC-EASY on four clusters accepted")
	}
}
