package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// result is what one run of one workload measured.
type result struct {
	workload  *workload
	seed      uint64
	traced    bool
	attempted int
	failed    int
	// violations describes each failed correctness check, for the log.
	violations []string
	// values holds every metric measured, keyed by catalog name; a
	// metric of the run's scope that is missing is reported n/a with the
	// reason in notes.
	values map[string]float64
	notes  map[string]string
	// info is free-form report text printed before the metrics (CPU
	// views, sample counts).
	info []string
}

func newResult(w *workload, seed uint64, traced bool) *result {
	return &result{
		workload: w,
		seed:     seed,
		traced:   traced,
		values:   make(map[string]float64),
		notes:    make(map[string]string),
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) na(name, why string) { r.notes[name] = why }

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// violate records a correctness violation that is not itself an
// attempted operation (a broken invariant over the whole run).
func (r *result) violate(format string, args ...any) {
	r.attempted++
	r.fail(format, args...)
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// value returns the metric for the report, or zero and the reason it is
// not available on this run.
func (r *result) value(d metricDef) (float64, string) {
	if d.scope&r.workload.scope == 0 {
		return 0, "n/a: " + r.workload.name + " does not exercise it"
	}
	if v, ok := r.values[d.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		return v, ""
	}
	if why, ok := r.notes[d.name]; ok {
		return 0, "n/a: " + why
	}
	if d.name == "failed_frac" && r.attempted > 0 {
		return float64(r.failed) / float64(r.attempted), ""
	}
	return 0, "n/a: not measured"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable report and, as the last line, the
// result object: the gate metrics for an untraced run, the per-layer
// metrics for a traced one. It returns an error when a gate metric is
// missing — the run then has no result to give.
func (r *result) write(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "env %s\n", envStamp())
	fmt.Fprintf(w, "workload %s seed %d traced %v (default seed %d, held-out seed %d)\n",
		r.workload.name, r.seed, r.traced, defaultSeed, heldOutSeed)
	for _, line := range r.info {
		fmt.Fprintf(w, "info %s\n", line)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "violation %s\n", v)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, d := range qoeMetrics {
		printMetric(w, "e2e", d, r)
	}
	for _, d := range gateMetrics {
		printMetric(w, "gate", d, r)
	}
	if r.traced {
		for _, d := range layerMetrics {
			printMetric(w, "layer", d, r)
		}
	}
	res := jsonResult{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	defs := gateMetrics
	if r.traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		v, why := r.value(d)
		if why != "" && !r.traced {
			w.Flush()
			return fmt.Errorf("gate metric %s: %s", d.name, why)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

func printMetric(w io.Writer, kind string, d metricDef, r *result) {
	v, why := r.value(d)
	if why != "" {
		fmt.Fprintf(w, "%s %s %s\n", kind, d.name, why)
		return
	}
	fmt.Fprintf(w, "%s %s %s %s\n", kind, d.name, formatValue(v), d.unit)
}

// formatValue formats a value for the text report; the result object
// carries every digit.
func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// envStamp describes the machine every output was measured on.
func envStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s network=loopback (live traffic crosses loopback: link rate and wire latency are not measured)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel returns the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
