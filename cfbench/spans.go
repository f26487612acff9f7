package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run, in nanoseconds since the
// run started. Spans of one player session share Session; Parent is the
// span that caused this one (0 for none).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent,omitempty"`
	Session int32  `json:"session,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths call it freely.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, 0, 4096)}
}

// since converts a wall time to the log's clock.
func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, start, end time.Time, parent, session int32) int32 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		Start: l.since(start), End: l.since(end)})
	return id
}

// count returns how many spans were recorded.
func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
