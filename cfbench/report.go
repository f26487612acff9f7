package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// report runs every workload untraced and traced, runs times each, as
// child processes of this binary, echoes their output, and prints a
// summary: each end-to-end metric's median per mode and the tracing
// overhead (traced minus untraced median).
func report(seed uint64, seconds float64, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
		return 1
	}
	fmt.Printf("env %s\n", envStamp())
	status := 0
	type key struct{ workload, metric string }
	vals := map[key][2][]float64{}
	units := map[string]string{}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			for i := 0; i < runs; i++ {
				s := seed + uint64(i)
				args := []string{"--workload", w.name, "--seed", strconv.FormatUint(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
				fmt.Printf("\n== %s seed %d trace %d\n", w.name, s, trace)
				var out bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = &out, os.Stderr
				runErr := cmd.Run()
				os.Stdout.Write(out.Bytes())
				if runErr != nil {
					fmt.Printf("!! %s trace %d: %v\n", w.name, trace, runErr)
					status = 1
				}
				sc := bufio.NewScanner(&out)
				for sc.Scan() {
					f := strings.Fields(sc.Text())
					if len(f) != 4 || (f[0] != "e2e" && f[0] != "gate") {
						continue
					}
					v, err := strconv.ParseFloat(f[2], 64)
					if err != nil {
						continue
					}
					k := key{w.name, f[1]}
					pair := vals[k]
					pair[trace] = append(pair[trace], v)
					vals[k] = pair
					units[f[1]] = f[3]
				}
			}
		}
	}
	fmt.Printf("\n== summary: median of %d run(s) per mode; overhead = traced - untraced\n", runs)
	fmt.Printf("%-16s %-24s %14s %14s %14s  %s\n", "workload", "metric", "untraced", "traced", "overhead", "unit")
	for _, w := range workloads {
		seen := map[string]bool{}
		for _, d := range append(append([]metricDef{}, qoeMetrics...), gateMetrics...) {
			if seen[d.name] || d.scope&w.scope == 0 {
				continue
			}
			seen[d.name] = true
			pair, ok := vals[key{w.name, d.name}]
			if !ok || len(pair[0]) == 0 {
				fmt.Printf("%-16s %-24s %14s\n", w.name, d.name, "n/a")
				continue
			}
			u := median(pair[0])
			if len(pair[1]) == 0 {
				fmt.Printf("%-16s %-24s %14s %14s %14s  %s\n", w.name, d.name, formatValue(u), "n/a", "n/a", units[d.name])
				continue
			}
			t := median(pair[1])
			fmt.Printf("%-16s %-24s %14s %14s %14s  %s\n", w.name, d.name,
				formatValue(u), formatValue(t), formatValue(t-u), units[d.name])
		}
	}
	return status
}
