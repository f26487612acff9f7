package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// cpuProfile is the CPU profile of a traced run; untraced runs get a nil
// one whose stop returns no samples.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile(traced bool) (*cpuProfile, error) {
	if !traced {
		return nil, nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() ([]cpuSample, error) {
	if p == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	return parseCPUProfile(p.buf.Bytes())
}

// writeTrace writes a traced run's spans (JSON lines) and CPU profile
// (pprof format, for `go tool pprof`) under the trace directory.
func writeTrace(rc *runConfig, w *workload, spans *spanLog, prof *cpuProfile) error {
	base := filepath.Join(rc.traceDir, fmt.Sprintf("%s-seed%d", w.name, rc.seed))
	if err := spans.writeFile(base + ".spans.jsonl"); err != nil {
		return err
	}
	if prof != nil {
		if err := os.WriteFile(base+".cpu.pprof", prof.buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write profile: %w", err)
		}
	}
	return nil
}
