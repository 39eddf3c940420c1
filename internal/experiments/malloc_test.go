package experiments

import (
	"testing"

	"care/internal/faultinject"
	"care/internal/safeguard"
	"care/internal/workloads"
)

// TestCorruptedMallocSizeEndsInTrial reproduces a campaign that used to
// kill the whole process: on the HPCCG O1 CARE build, one of these
// attempts flips a high bit of a malloc size, and the simulated heap
// used to ask the Go runtime for that many bytes. With the heap ceiling
// the malloc returns NULL inside the trial, and every examined attempt
// ends classified — recovered, or with a Safeguard outcome.
func TestCorruptedMallocSizeEndsInTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 24-trial coverage experiment")
	}
	bin, err := BuildWorkload("HPCCG", workloads.Params{}, 1, []string{"care"})
	if err != nil {
		t.Fatal(err)
	}
	spec := DomainRewindSpec(safeguard.Policy{})
	res, err := (&faultinject.CoverageExperiment{
		App: bin, Trials: 24, Seed: faultinject.TrialSeed(23, 3), Workers: 2,
		Safeguard:              spec.Safeguard,
		CheckpointEveryResults: spec.CheckpointEveryResults,
		CheckpointModel:        spec.CheckpointModel,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, n := range res.FailureOutcomes {
		failed += n
	}
	if res.SigsegvTrials == 0 || res.Recovered+failed != res.SigsegvTrials {
		t.Fatalf("%d examined trials: %d recovered + %d failed (%v)", res.SigsegvTrials, res.Recovered, failed, res.FailureOutcomes)
	}
}
