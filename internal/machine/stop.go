package machine

import "fmt"

// Stop points are the CPU's execution-control primitive: a caller that
// needs to act right after some retirement — the fault injector
// corrupting a destination operand, the checkpoint cadence, snapshot
// capture — registers a point instead of a retire hook. Run honours
// points without leaving the superblock engine: a Dyn point clamps the
// engine's budget so the chain stops one retirement short of it, a
// static-instruction point stops the chain in front of that
// instruction, and host calls always punt; in each case one Step
// retires the instruction and then runs the callback with the
// (image, index, instruction) it retired. Points live on the CPU, so
// they survive budget-sliced Run calls and checkpoint rollbacks that
// lower Dyn.
//
// Points fire after the retire hooks (AfterStep, AddAfterStep), in
// registration order; a point registered or re-targeted by a callback
// takes effect from the next retirement.

type stopKind uint8

const (
	stopDyn    stopKind = iota // after retirements that leave Dyn >= dyn
	stopStatic                 // after retirements of (image, idx)
	stopHost                   // after host-call retirements
)

// StopPoint is one registered execution-control point; see
// CPU.StopAtDyn, CPU.StopAfterInstr and CPU.StopAtHostCall.
type StopPoint struct {
	c     *CPU
	kind  stopKind
	dyn   uint64
	image string
	idx   int
	fn    StepHook
	dead  bool
}

// StopAtDyn registers a Dyn point: fn runs after every retirement that
// leaves Dyn >= n, until the point is removed or re-targeted. The first
// such retirement is the one that brings Dyn to n — or, when Dyn is
// already at or past n, the next one. A rollback that lowers Dyn below
// n re-arms the point.
func (c *CPU) StopAtDyn(n uint64, fn StepHook) *StopPoint {
	return c.addStop(&StopPoint{kind: stopDyn, dyn: n, fn: fn})
}

// StopAfterInstr registers a static-instruction point: fn runs after
// every retirement of code index idx of any image whose program is
// named image (images attached later included).
func (c *CPU) StopAfterInstr(image string, idx int, fn StepHook) *StopPoint {
	return c.addStop(&StopPoint{kind: stopStatic, image: image, idx: idx, fn: fn})
}

// StopAtHostCall registers a host-call point: fn runs after every
// retired MHost instruction. Host calls always leave the fast engine
// for Step, so this costs nothing on the fast path.
func (c *CPU) StopAtHostCall(fn StepHook) *StopPoint {
	return c.addStop(&StopPoint{kind: stopHost, fn: fn})
}

// MoveToDyn re-targets the point as a Dyn point at n, keeping its place
// in the firing order.
func (p *StopPoint) MoveToDyn(n uint64) {
	if p.dead {
		return
	}
	p.kind, p.dyn = stopDyn, n
	p.c.stopsChanged()
}

// Remove unregisters the point. Removing twice is a no-op.
func (p *StopPoint) Remove() {
	if p.dead {
		return
	}
	p.dead = true
	c := p.c
	// A fresh slice, so a firePoints loop iterating the old one (the
	// callback removing itself) is undisturbed.
	live := make([]*StopPoint, 0, len(c.stops)-1)
	for _, q := range c.stops {
		if q != p {
			live = append(live, q)
		}
	}
	c.stops = live
	c.stopsChanged()
}

func (c *CPU) addStop(p *StopPoint) *StopPoint {
	p.c = c
	c.stops = append(c.stops, p)
	c.stopsChanged()
	return p
}

// stopsChanged recomputes the cached engine view of the points: the
// lowest Dyn threshold, and (lazily, via curBrksOK) the current image's
// static break indices.
func (c *CPU) stopsChanged() {
	c.dynStop = 0
	for _, p := range c.stops {
		if p.kind != stopDyn {
			continue
		}
		if n := max(p.dyn, 1); c.dynStop == 0 || n < c.dynStop {
			c.dynStop = n
		}
	}
	c.curBrksOK = false
}

// firePoints runs the points matching the instruction Step just
// retired. Only the points registered before this retirement are
// considered.
func (c *CPU) firePoints(img *Image, idx int, in *MInstr) {
	for _, p := range c.stops {
		if p.dead {
			continue
		}
		switch p.kind {
		case stopDyn:
			if c.Dyn < p.dyn {
				continue
			}
		case stopStatic:
			if idx != p.idx || img.Prog.Name != p.image {
				continue
			}
		case stopHost:
			if in.Op != MHost {
				continue
			}
		}
		p.fn(c, img, idx, in)
	}
}

// brksFor returns the code indices of img that carry a static point, so
// runSuper can stop its chains in front of them. The slice is cached
// until the current image or the registered points change.
func (c *CPU) brksFor(img *Image) []int32 {
	if c.curBrksOK {
		return c.curBrks
	}
	c.curBrks = c.curBrks[:0]
	for _, p := range c.stops {
		if p.kind == stopStatic && p.image == img.Prog.Name && p.idx >= 0 && p.idx < len(img.Prog.Code) {
			c.curBrks = append(c.curBrks, int32(p.idx))
		}
	}
	c.curBrksOK = true
	return c.curBrks
}

// EngineCounters account for how Run executed: instructions retired on
// each tier, and why the fast engine handed instructions to Step. They
// are bookkeeping beside the results — nothing in a trace or a result
// depends on them.
type EngineCounters struct {
	// SuperRetired and StepRetired count retirements by the superblock
	// engine and by Step.
	SuperRetired uint64
	StepRetired  uint64
	// DynStops counts Steps taken because the next retirement may fire
	// a Dyn point; StaticStops chains stopped in front of a
	// static-instruction point; HostPunts µops the engine does not
	// carry (host calls, abort/halt, malformed operands); HookDeopts
	// Steps forced by an installed retire hook; Misaligned Steps taken
	// at a misaligned PC.
	DynStops    uint64
	StaticStops uint64
	HostPunts   uint64
	HookDeopts  uint64
	Misaligned  uint64
}

// String renders the counters as one key=value stats line.
func (e EngineCounters) String() string {
	return fmt.Sprintf("machine.engine super-retired=%d step-retired=%d step-share=%.3f%% dyn-stops=%d static-stops=%d host-punts=%d hook-deopts=%d misaligned=%d",
		e.SuperRetired, e.StepRetired, 100*e.StepShare(), e.DynStops, e.StaticStops, e.HostPunts, e.HookDeopts, e.Misaligned)
}

// Add accumulates o into e.
func (e *EngineCounters) Add(o EngineCounters) {
	e.SuperRetired += o.SuperRetired
	e.StepRetired += o.StepRetired
	e.DynStops += o.DynStops
	e.StaticStops += o.StaticStops
	e.HostPunts += o.HostPunts
	e.HookDeopts += o.HookDeopts
	e.Misaligned += o.Misaligned
}

// StepShare is the fraction of retirements Step performed (0 when
// nothing retired).
func (e EngineCounters) StepShare() float64 {
	if n := e.SuperRetired + e.StepRetired; n > 0 {
		return float64(e.StepRetired) / float64(n)
	}
	return 0
}
