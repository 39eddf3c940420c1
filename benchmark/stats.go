package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTailSamples is the sample count below which a p90 is refused: with
// fewer than 100 samples the 90th percentile has under ten samples
// beyond it and is no tail.
const minTailSamples = 100

// percentile returns the q-quantile (0 <= q <= 1) of samples by linear
// interpolation between the closest ranks (the same rule as Python's
// statistics.quantiles with method "inclusive"). The input is not
// modified. It fails on an empty sample set.
func percentile(samples []float64, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample set")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("percentile %v outside [0, 1]", q)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is percentile(samples, 0.5).
func median(samples []float64) (float64, error) { return percentile(samples, 0.5) }

// tailP90 is the 90th percentile, refused below minTailSamples.
func tailP90(samples []float64) (float64, error) {
	if len(samples) < minTailSamples {
		return 0, fmt.Errorf("p90 needs at least %d samples, have %d", minTailSamples, len(samples))
	}
	return percentile(samples, 0.9)
}

// medianOrZero is median for sample sets that may legitimately be empty
// in a traced run (a layer the run never entered); it reports 0 then.
func medianOrZero(samples []float64) float64 {
	v, err := median(samples)
	if err != nil {
		return 0
	}
	return v
}

// micros and millis convert a duration to float microseconds and
// milliseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocMeter accumulates Go heap bytes allocated inside the measured
// sections only: each section reads runtime.MemStats.TotalAlloc on entry
// and exit, so checks and replays run between sections are excluded.
// Allocation reported by other processes (shard workers) is added
// explicitly.
type allocMeter struct {
	bytes uint64
	start uint64
	open  bool
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin opens a measured section.
func (m *allocMeter) begin() {
	m.start = totalAlloc()
	m.open = true
}

// end closes the section opened by begin and adds its allocation.
func (m *allocMeter) end() {
	if !m.open {
		panic("allocMeter.end without begin")
	}
	m.bytes += totalAlloc() - m.start
	m.open = false
}

// add charges bytes allocated elsewhere (a worker process).
func (m *allocMeter) add(b uint64) { m.bytes += b }

// kbPer is the kilobytes allocated per operation.
func (m *allocMeter) kbPer(ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(m.bytes) / 1024 / float64(ops)
}

// peakRSSKB reads this process's peak resident set (VmHWM) in kB.
func peakRSSKB() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
