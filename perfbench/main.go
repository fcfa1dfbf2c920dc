// Command perfbench is the end-to-end benchmark of the VNET overlay: it
// builds a real overlay in one process (daemons on loopback TCP, a star
// rooted at "proxy", VMs attached through internal/vm) and drives one of
// three closed-loop workloads from a single generator goroutine:
//
//	relay-small      smallest frames a→proxy→b; no Wren, no controller
//	stream-measured  1400-byte frames on the same path with Wren attached
//	                 to every daemon and the VTTIF/Wren reporters running
//	adapt-shift      8 hosts in two clusters; the VADAPT controller
//	                 re-places 8 VMs each time their pattern shifts
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload relay-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// timed by spans the benchmark records around each call into a layer.
// Lines before it (prefixed "#") are the human-readable report. A failed
// correctness check makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Set at build time by run.sh.
var (
	commit  = "none"
	srcHash = "none"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

const (
	// setups is how many times a run sets its overlay up; setup_s is the
	// median.
	setups = 5
	// outDir, relative to the repository root run.sh runs from, holds the
	// span files.
	outDir = ".bench_build"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds (set-up excluded)")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and print per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s src=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, srcHash)

	var res *result
	var err error
	if w, ok := frameWorkloads[o.workload]; ok {
		res, err = runFrames(w, o)
	} else if o.workload == "adapt-shift" {
		res, err = runAdapt(o)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.e2e["setup_s"] = percentile(res.setup, 50)
	if o.trace {
		res.layerFromSpans()
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Printf("# %d spans written to %s\n", len(res.spans), path)
	}
	correct := res.report(o.trace)
	if !correct {
		os.Exit(1)
	}
}

// result is what one run measured and checked.
type result struct {
	attempted, failed uint64
	failures          []string // failed correctness checks
	setup             []float64
	e2e, layer        map[string]float64
	notes             []string
	spans             []span
	feed              feedSums
	tracedCPU         int64 // process CPU time while tracing, ns
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkFrames accounts for the frames of a run (c is the run's share of
// the rig's counts; drops is the growth of the daemons' FramesDropped and
// TTLExpired). A frame fails when it is never delivered intact; every
// transmission that did not arrive must be one the daemons counted as
// dropped; a frame sent once must not arrive twice.
func (r *result) checkFrames(c counts, drops uint64) {
	r.attempted += c.sent
	lost := c.sent - min(c.sent, c.delivered)
	r.failed += lost
	if lost > 0 {
		r.fail("%d of %d frames were never delivered intact", lost, c.sent)
	}
	if c.corrupt > 0 {
		r.fail("%d frames failed their checksum", c.corrupt)
	}
	if c.dups > 0 {
		r.fail("%d frames were delivered twice", c.dups)
	}
	sends, arrivals := c.sent+c.resent, c.delivered+c.corrupt+c.dups+c.spurious
	if missing := sends - min(sends, arrivals); missing > drops {
		r.fail("conservation: %d transmissions, %d arrivals, %d missing but only %d counted as dropped",
			sends, arrivals, missing, drops)
	}
}

// latency sets the latency metrics from window-1 samples (µs) taken in
// windows: each percentile is the median of the windows' percentiles, so
// one disturbed window cannot move it.
func (r *result) latency(windows [][]float64) {
	var p50s, p99s, all []float64
	for _, w := range windows {
		p50s = append(p50s, percentile(w, 50))
		p99s = append(p99s, percentile(w, 99))
		if !supports(len(w), 99) {
			r.note("frame latency: a window of %d samples has fewer than %d beyond p99", len(w), minBeyond)
		}
		all = append(all, w...)
	}
	r.e2e["frame_latency_p50_us"] = percentile(p50s, 50)
	r.layer["frame_latency_p99_us"] = percentile(p99s, 50)
	if p, ok := highestSupported(len(all)); ok {
		r.note("frame latency over all %d samples: p50 %.1f us, p%g %.1f us, max %.1f us",
			len(all), percentile(all, 50), p, percentile(all, p), percentile(all, 100))
	}
}

// chunks splits xs into consecutive windows of n (the remainder joins the
// last window).
func chunks(xs []float64, n int) [][]float64 {
	var out [][]float64
	for len(xs) >= 2*n {
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	return append(out, xs)
}

// layerFromSpans fills the per-layer metrics that come from spans.
func (r *result) layerFromSpans() {
	self := selfTimes(r.spans)
	p50 := func(name string, scale float64) float64 {
		durs, _ := byName(r.spans, self, name)
		return percentile(durs, 50) / scale
	}
	r.layer["vnet.inject_us"] = p50("vnet.inject", 1)
	r.layer["vnet.transit_us"] = percentile(windowOneTransits(r.spans), 50)
	r.layer["vnet.report_us"] = p50("vnet.report", 1)
	r.layer["vnet.apply_ms"] = p50("vnet.apply", 1e3)
	r.layer["wren.poll_ms"] = p50("wren.poll", 1e3)
	r.layer["vttif.aggregate_us"] = p50("vttif.aggregate", 1)
	r.layer["control.sense_ms"] = p50("control.sense", 1e3)
	r.layer["coord.put_us"] = p50("coord.put", 1)
	r.layer["coord.build_map_ms"] = p50("coord.build_map", 1e3)
	r.layer["coord.parse_us"] = p50("coord.parse", 1)

	// Decide is what a cycle spends outside sense and apply: the cycle
	// span's self time.
	_, decide := byName(r.spans, self, "control.cycle")
	r.layer["control.decide_p50_ms"] = percentile(decide, 50) / 1e3
	r.layer["control.decide_p99_ms"] = percentile(decide, 99) / 1e3

	var pollNs int64
	for _, s := range r.spans {
		if s.Name == "wren.poll" {
			pollNs += s.dur()
		}
	}
	if f := r.feed; f.records > 0 {
		r.layer["wren.feed_ns_per_record"] = float64(f.ns) / float64(f.records)
		r.layer["wren.feed_batch_records"] = float64(f.records) / float64(f.batches)
	}
	if r.tracedCPU > 0 {
		r.layer["wren.busy_frac"] = float64(r.feed.ns+pollNs) / float64(r.tracedCPU)
	}
}

// windowOneTransits returns the transit times (µs) of traced frames sent
// with one frame in flight: those of the latency phase and the probes.
func windowOneTransits(spans []span) []float64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []float64
	for _, s := range spans {
		if s.Name != "vnet.transit" {
			continue
		}
		if phase := byID[byID[s.Parent].Parent]; phase.Name == "latency" || phase.Name == "probes" {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// report prints the human-readable report and the JSON result line, and
// returns whether every check passed.
func (r *result) report(traced bool) bool {
	for _, vals := range []map[string]float64{r.e2e, r.layer} {
		for name, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.fail("metric %s is %v", name, v)
				vals[name] = 0
			}
		}
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("# setup runs (s): %s\n", fmtList(r.setup))
	fmt.Printf("# %-32s %16.6g %s\n", "error_frac", errFrac, "ratio")
	for _, m := range endToEnd {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Printf("# %-32s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.layer[m.Name]; ok {
			fmt.Printf("# %-32s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if traced {
		printLayerTable(layerTable(r.spans))
	}
	for _, f := range r.failures {
		fmt.Println("# FAILED: " + f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		out.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	line, _ := json.Marshal(out) // plain structs and finite floats cannot fail
	fmt.Println(string(line))
	return out.Correct
}

func fmtList(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
