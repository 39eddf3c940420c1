package machine

import (
	"fmt"
	"reflect"
	"testing"

	"care/internal/debuginfo"
	"care/internal/hostenv"
)

// stopLog records every stop-point callback as "label@Dyn:idx".
type stopLog []string

func (l *stopLog) hook(label string) StepHook {
	return func(c *CPU, _ *Image, idx int, _ *MInstr) {
		*l = append(*l, fmt.Sprintf("%s@%d:%d", label, c.Dyn, idx))
	}
}

// TestStopPointsMatchStepLoop registers every kind of point — static
// points mid-chain and on a branch, Dyn points that remove and
// re-target themselves, a point registered late — and requires the
// superblock engine, run in budget slices, to fire them on exactly the
// retirements the Step loop does.
func TestStopPointsMatchStepLoop(t *testing.T) {
	run := func(tier InterpTier, slice uint64) (stopLog, *CPU) {
		c, _ := asm(t, loopProgram(60))
		mapData(t)(c)
		c.Tier = tier
		var log stopLog
		c.StopAfterInstr("asm", 5, log.hook("mul"))
		c.StopAfterInstr("asm", 14, log.hook("jnz"))
		c.StopAfterInstr("other", 5, log.hook("other-image"))
		var once *StopPoint
		once = c.StopAtDyn(37, func(cc *CPU, img *Image, idx int, in *MInstr) {
			log.hook("once")(cc, img, idx, in)
			once.Remove()
		})
		var moved *StopPoint
		moved = c.StopAtDyn(100, func(cc *CPU, img *Image, idx int, in *MInstr) {
			log.hook("moved")(cc, img, idx, in)
			if cc.Dyn < 150 {
				moved.MoveToDyn(150)
				return
			}
			moved.Remove()
		})
		var reg *StopPoint
		reg = c.StopAtDyn(400, func(cc *CPU, _ *Image, _ int, _ *MInstr) {
			reg.Remove()
			// Registered past its threshold: fires on the next
			// retirement, not this one.
			var late *StopPoint
			late = cc.StopAtDyn(10, func(cc *CPU, img *Image, idx int, in *MInstr) {
				log.hook("late")(cc, img, idx, in)
				late.Remove()
			})
		})
		for c.Run(slice) == StatusLimit {
		}
		return log, c
	}
	want, step := run(TierStep, 13)
	if len(want) == 0 {
		t.Fatal("no point fired")
	}
	for _, slice := range []uint64{1, 13, 1 << 20} {
		got, fast := run(TierSuperblock, slice)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slice %d: superblock fired\n%v\nStep loop fired\n%v", slice, got, want)
		}
		compareCPUs(t, fast, step)
		if fast.Counters.SuperRetired == 0 || fast.Counters.StaticStops == 0 || fast.Counters.DynStops == 0 {
			t.Errorf("slice %d: counters %+v; the engine did not run between points", slice, fast.Counters)
		}
	}
}

// TestDynPointRearmsAfterRollback: a Dyn point that stays registered
// fires again when a rollback lowers Dyn below its threshold and the
// run climbs back to it, on both tiers.
func TestDynPointRearmsAfterRollback(t *testing.T) {
	run := func(tier InterpTier) stopLog {
		c, _ := asm(t, loopProgram(40))
		mapData(t)(c)
		c.Tier = tier
		var ctx Context
		c.StopAtDyn(20, func(cc *CPU, _ *Image, _ int, _ *MInstr) {
			if cc.Dyn == 20 {
				ctx = cc.Context()
			}
		})
		var log stopLog
		rolled := false
		var pt *StopPoint
		pt = c.StopAtDyn(90, func(cc *CPU, img *Image, idx int, in *MInstr) {
			log.hook("fault")(cc, img, idx, in)
			if !rolled {
				rolled = true
				cc.SetContext(ctx)
				return
			}
			pt.Remove()
		})
		c.Run(0)
		return log
	}
	want := run(TierStep)
	if got := run(TierSuperblock); !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Fatalf("superblock fired %v, Step loop %v (want two firings at Dyn 90)", got, want)
	}
}

// hostLoopProgram reports n results through the result_f64 host call.
func hostLoopProgram(n int64) []MInstr {
	return []MInstr{
		{Op: MMovImm, Rd: R5, Imm: n},
		{Op: MPush, Ra: R5}, // idx 1
		{Op: MHost, Host: "result_f64", HostArgs: 1},
		{Op: MPop, Rd: R6},
		{Op: MSub, Rd: R5, Ra: R5, UseImm: true, Imm: 1},
		{Op: MSet, Cond: CondGT, Rd: R3, Ra: R5, UseImm: true, Imm: 0},
		{Op: MJnz, Ra: R3, Target: AppCodeBase + 8*1},
		{Op: MHalt, Ra: R5},
	}
}

// TestHostCallPointFiresPerHostRetirement: a host-call point sees every
// host call right after it retires, with its result already recorded.
func TestHostCallPointFiresPerHostRetirement(t *testing.T) {
	for _, tier := range Tiers() {
		c, _ := asm(t, hostLoopProgram(25))
		c.Tier = tier
		var seen []int
		c.StopAtHostCall(func(cc *CPU, _ *Image, idx int, in *MInstr) {
			if in.Op != MHost || idx != 2 {
				t.Fatalf("%v: host point fired on idx %d (%v)", tier, idx, in.Op)
			}
			seen = append(seen, len(cc.Env.Results))
		})
		if st := c.Run(0); st != StatusExited {
			t.Fatalf("%v: %v", tier, st)
		}
		if len(seen) != 25 || seen[0] != 1 || seen[24] != 25 {
			t.Fatalf("%v: host point saw result counts %v", tier, seen)
		}
	}
}

// TestEngineCounters: a pointless run retires everything on the engine;
// one Dyn point costs exactly one Step.
func TestEngineCounters(t *testing.T) {
	c, _ := asm(t, loopProgram(500))
	mapData(t)(c)
	c.Run(0)
	if c.Counters.StepRetired != 0 || c.Counters.SuperRetired != c.Dyn {
		t.Fatalf("pointless run: counters %+v, Dyn %d", c.Counters, c.Dyn)
	}
	if c.Counters.HostPunts != 1 { // the halt
		t.Fatalf("pointless run: %d punts, want 1 (halt)", c.Counters.HostPunts)
	}
	c, _ = asm(t, loopProgram(500))
	mapData(t)(c)
	var pt *StopPoint
	pt = c.StopAtDyn(1000, func(*CPU, *Image, int, *MInstr) { pt.Remove() })
	c.Run(0)
	if c.Counters.StepRetired != 1 || c.Counters.DynStops != 1 {
		t.Fatalf("one Dyn point: counters %+v, want one Step", c.Counters)
	}
	if share := c.Counters.StepShare(); share <= 0 || share > 0.001 {
		t.Fatalf("Step share %v", share)
	}
}

// TestStaticPointsAcrossImages: static points are per image, so a chain
// in one image must not stop (or fail to stop) at the indices of
// another image's points when control crosses between them.
func TestStaticPointsAcrossImages(t *testing.T) {
	run := func(tier InterpTier) (stopLog, *CPU) {
		lib := &Program{Name: "lib", CodeBase: LibCodeBase, Debug: debuginfo.New(),
			Funcs: []FuncSym{{Name: "f", Entry: 0}},
			Code: []MInstr{
				{Op: MAdd, Rd: R2, Ra: R2, UseImm: true, Imm: 1},
				{Op: MAdd, Rd: R2, Ra: R2, UseImm: true, Imm: 2}, // idx 1
				{Op: MMul, Rd: R6, Ra: R2, Rb: R2},
				{Op: MAdd, Rd: R7, Ra: R6, Rb: R2},
				{Op: MRet},
			}}
		app := &Program{Name: "asm", CodeBase: AppCodeBase, Debug: debuginfo.New(),
			Funcs: []FuncSym{{Name: "_start", Entry: 0}},
			Code: []MInstr{
				{Op: MMovImm, Rd: R5, Imm: 30},
				{Op: MCall, Target: LibCodeBase}, // idx 1
				{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 1},
				{Op: MMul, Rd: R4, Ra: R1, Rb: R1}, // idx 3
				{Op: MSub, Rd: R5, Ra: R5, UseImm: true, Imm: 1},
				{Op: MSet, Cond: CondGT, Rd: R3, Ra: R5, UseImm: true, Imm: 0},
				{Op: MJnz, Ra: R3, Target: AppCodeBase + 8*1},
				{Op: MHalt, Ra: R5},
			}}
		mem := NewMemory()
		c := NewCPU(mem, hostenv.NewEnv())
		for _, p := range []*Program{app, lib} {
			img, err := Load(mem, p)
			if err != nil {
				t.Fatal(err)
			}
			c.Attach(img)
		}
		if err := c.InitStack(); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(c.Images[0], "_start"); err != nil {
			t.Fatal(err)
		}
		c.Tier = tier
		var log stopLog
		c.StopAfterInstr("lib", 1, log.hook("lib"))
		c.StopAfterInstr("asm", 3, log.hook("app"))
		if st := c.Run(0); st != StatusExited {
			t.Fatalf("%v: %v (%v)", tier, st, c.PendingTrap)
		}
		return log, c
	}
	want, step := run(TierStep)
	got, fast := run(TierSuperblock)
	if len(want) != 60 || !reflect.DeepEqual(got, want) {
		t.Fatalf("superblock fired\n%v\nStep loop fired\n%v", got, want)
	}
	compareCPUs(t, fast, step)
}
