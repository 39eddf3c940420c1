package care

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// updateFixtures rewrites testdata/traces from the current tree instead
// of comparing against it. Fixtures are only ever regenerated on purpose:
// a change to the engine, the injector or the recovery chain must leave
// every exported trace byte-identical.
var updateFixtures = flag.Bool("update-fixtures", false, "regenerate testdata/traces from the default tier")

// traceFixtures are small CLI runs covering each arming and recovery
// path: cold and warm-started multi-fault campaigns over every workload
// (Dyn-triggered faults), a multi-fault domain-rewind policy campaign
// (occurrence triggers, periodic checkpoints, rollbacks with faults
// still armed), a single-fault coverage experiment under the same chain
// at O1, and a two-rank protected cluster job.
var traceFixtures = []struct {
	name string
	cmd  string
	args []string
}{
	{"campaign-cold", "care-inject", []string{"-n", "30", "-faults", "3", "-workload", "all", "-seed", "9"}},
	{"campaign-warm", "care-inject", []string{"-n", "30", "-faults", "3", "-workload", "all", "-seed", "9", "-warmstart"}},
	{"domain-rewind", "care-inject", []string{"-domain-rewind", "-n", "12", "-faults", "2", "-workload", "HPCCG", "-seed", "7"}},
	{"coverage-rewind", "care-inject", []string{"-domain-rewind", "-n", "16", "-workload", "miniMD", "-opt", "1", "-seed", "5"}},
	{"cluster-2rank", "care-cluster", []string{"-workload", "HPCCG", "-ranks", "2", "-threads", "6"}},
}

// scrubTrace zeroes the wall-clock fields of an exported trace — span
// wall_ns and the *-ns timing counters — exactly as the CI smokes'
// sed expression does; everything else is on the virtual clock.
func scrubTrace(b []byte) []byte {
	b = regexp.MustCompile(`"wall_ns":-?[0-9]+`).ReplaceAll(b, []byte(`"wall_ns":0`))
	return regexp.MustCompile(`("name":"[a-z.-]+-ns","value":)-?[0-9]+`).ReplaceAll(b, []byte(`${1}0`))
}

// TestTraceFixtures regenerates every fixture on each interpreter tier
// and requires the scrubbed trace JSONL to match the committed bytes.
func TestTraceFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildCLIs(t, "care-inject", "care-cluster")
	tiers := []string{"superblock", "step"}
	if *updateFixtures {
		tiers = tiers[:1]
	}
	for _, fx := range traceFixtures {
		want := filepath.Join("testdata", "traces", fx.name+".jsonl")
		for _, tier := range tiers {
			t.Run(fx.name+"/"+tier, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "trace.jsonl")
				args := append(append([]string{}, fx.args...), "-workers", "2", "-interp", tier, "-trace-out", out)
				cmd := exec.Command(bins[fx.cmd], args...)
				if msg, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("%s %v: %v\n%s", fx.cmd, args, err, msg)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				got = scrubTrace(got)
				if *updateFixtures {
					if err := os.MkdirAll(filepath.Dir(want), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(want, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				exp, err := os.ReadFile(want)
				if err != nil {
					t.Fatalf("%v (regenerate with -update-fixtures)", err)
				}
				if !bytes.Equal(got, exp) {
					t.Fatalf("scrubbed trace differs from %s (%d vs %d bytes)", want, len(got), len(exp))
				}
			})
		}
	}
}
