package main

import (
	"math/rand"
	"strings"
	"testing"

	"care/internal/experiments"
	"care/internal/faultinject"
)

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		got, err := percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
	if _, err := percentile(s, 1.5); err == nil {
		t.Error("percentile outside [0, 1] did not fail")
	}
}

func TestTailP90RefusesFewSamples(t *testing.T) {
	s := make([]float64, minTailSamples-1)
	for i := range s {
		s[i] = float64(i)
	}
	if _, err := tailP90(s); err == nil {
		t.Fatalf("p90 of %d samples did not fail", len(s))
	}
	s = append(s, float64(len(s)))
	got, err := tailP90(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.9 * float64(len(s)-1); got != want {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
}

func TestAllocMeterCountsOnlyMeasuredSections(t *testing.T) {
	var m allocMeter
	var keep [][]byte
	keep = append(keep, make([]byte, 1<<20)) // outside any section
	m.begin()
	keep = append(keep, make([]byte, 1<<20))
	m.end()
	keep = append(keep, make([]byte, 4<<20)) // outside again
	m.add(1 << 20)
	if m.bytes < 2<<20 || m.bytes >= 3<<20 {
		t.Fatalf("meter holds %d bytes, want about 2 MiB", m.bytes)
	}
	if got := m.kbPer(2); got < 1024 || got >= 1536 {
		t.Fatalf("kbPer(2) = %v", got)
	}
	_ = keep
}

// checkedCampaign runs a small cold campaign of HPCCG and returns it
// with the app's reference.
func checkedCampaign(t *testing.T, n int) (*campaignApp, int64, *faultinject.CampaignResult) {
	t.Helper()
	bin, err := experiments.BuildWorkload("HPCCG", defaultParams, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefCache().reference("HPCCG", bin)
	if err != nil {
		t.Fatal(err)
	}
	a := &campaignApp{name: "HPCCG", bin: bin, ref: ref}
	seed, err := a.seed(7, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&faultinject.Campaign{App: bin, N: n, Seed: seed, Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return a, seed, res
}

func TestCheckerRejectsMislabelledTrial(t *testing.T) {
	const n = 12
	a, seed, res := checkedCampaign(t, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if err := checkCampaign(a.bin, a.ref, seed, res, all); err != nil {
		t.Fatalf("checker rejects an untouched campaign: %v", err)
	}
	victim := rand.New(rand.NewSource(1)).Intn(n)
	inj := &res.Injections[victim]
	inj.Outcome = (inj.Outcome + 1) % faultinject.Hang
	if inj.Outcome == faultinject.Benign {
		inj.Outcome = faultinject.SDC
	}
	err := checkCampaign(a.bin, a.ref, seed, res, all)
	if err == nil {
		t.Fatalf("checker accepted trial %d relabelled as %v", victim, inj.Outcome)
	}
	if !strings.Contains(err.Error(), "cold replay") {
		t.Fatalf("checker failed for another reason: %v", err)
	}
}

func TestCheckerRejectsWrongTotals(t *testing.T) {
	a, seed, res := checkedCampaign(t, 4)
	res.Outcomes[faultinject.Benign]++
	if err := checkCampaign(a.bin, a.ref, seed, res, nil); err == nil {
		t.Fatal("checker accepted outcomes that do not sum to N")
	}
}

func TestMallocScreenIsNarrow(t *testing.T) {
	for _, name := range campaignApps {
		bin, err := experiments.BuildWorkload(name, defaultParams, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefCache().reference(name, bin)
		if err != nil {
			t.Fatal(err)
		}
		share := float64(len(ref.mallocDyn)) / float64(ref.TotalDyn)
		t.Logf("%s: %d malloc-size instructions, %d retirements (%.4f%% of %d)", name, len(ref.mallocStatic), len(ref.mallocDyn), 100*share, ref.TotalDyn)
		if share > 0.001 {
			t.Errorf("%s: %.4f%% of retirements screened, want under 0.1%%", name, 100*share)
		}
		skipped := 0
		for k := 0; k < 50; k++ {
			if ref.campaignTouchesMalloc(int64(k), trialsPerCampaign) {
				skipped++
			}
		}
		t.Logf("%s: %d of 50 campaign seeds touch a malloc size", name, skipped)
	}
}
