package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/dist"
)

// span is one timed call into a layer, recorded from outside the program:
// around the benchmark's own calls into the checker, and inside the
// callbacks and transports the benchmark hands it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Job    int    `json:"job"`    // index of the job in the traced pass, -1 if unknown
}

// tracer keeps spans in memory until the run ends. It records only while
// on; an off tracer makes every hook a no-op. begin and end are safe for
// concurrent use (the fleet's workers and coordinator record from their own
// goroutines).
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span

	// cur and job locate the innermost open checker span of the in-process
	// loop, which the guest-callback wrappers nest under. Only the loop's
	// goroutine touches them: the checker calls Program.Run and
	// Program.Recover on the goroutine that called Checker.Run.
	cur, job int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1, job: -1} }

func (t *tracer) begin(name string, parent, job int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// enter opens an in-process checker span and makes it the parent of the
// guest callbacks until the returned function closes it.
func (t *tracer) enter(name string) (leave func()) {
	id, prev := t.begin(name, t.cur, t.job), t.cur
	t.cur = id
	return func() {
		t.end(id)
		t.cur = prev
	}
}

// wrapGuest wraps a program's callbacks in context spans parented by the
// in-process loop's current checker span.
func (t *tracer) wrapGuest(p core.Program) core.Program {
	return t.wrapProgram(p, "context", func() (int, int) { return t.cur, t.job })
}

// wrapProgram times every call of the guest's Run (pre-failure) and Recover
// (post-failure) callbacks as <prefix>.pre_failure / <prefix>.post_failure
// spans. The deferred end also closes the span when the simulated power
// failure unwinds the callback.
func (t *tracer) wrapProgram(p core.Program, prefix string, parent func() (int, int)) core.Program {
	run, rec := p.Run, p.Recover
	pre, post := prefix+".pre_failure", prefix+".post_failure"
	p.Run = func(c *core.Context) {
		par, job := parent()
		defer t.end(t.begin(pre, par, job))
		run(c)
	}
	if rec != nil {
		p.Recover = func(c *core.Context) {
			par, job := parent()
			defer t.end(t.begin(post, par, job))
			rec(c)
		}
	}
	return p
}

// route names a coordinator endpoint by its path: lease, commit, heartbeat
// or jobs (submission and status polls).
func route(path string) string {
	switch {
	case path == "/v1/lease":
		return "lease"
	case strings.HasSuffix(path, "/commit"):
		return "commit"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasPrefix(path, "/v1/jobs"):
		return "jobs"
	}
	return "other"
}

// tracedHandler times the coordinator's handling of each request.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer h.tr.end(h.tr.begin("dist.server."+route(r.URL.Path), -1, -1))
	h.h.ServeHTTP(w, r)
}

// tracedDoer times each round trip a worker makes to the coordinator.
type tracedDoer struct {
	d  dist.Doer
	tr *tracer
}

func (d tracedDoer) Do(r *http.Request) (*http.Response, error) {
	defer d.tr.end(d.tr.begin("dist.rpc."+route(r.URL.Path), -1, -1))
	return d.d.Do(r)
}

// spanIndex answers duration queries over a finished trace.
type spanIndex struct {
	spans    []span
	children [][]int
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	x := &spanIndex{spans: append([]span(nil), t.spans...), children: make([][]int, len(t.spans))}
	for i, s := range x.spans {
		if s.Parent >= 0 {
			x.children[s.Parent] = append(x.children[s.Parent], i)
		}
	}
	return x
}

// sum returns the count and total duration of the spans called name whose
// parent is called parent ("" matches any parent).
func (x *spanIndex) sum(name, parent string) (n int, ns int64) {
	for _, s := range x.spans {
		if s.Name != name || (parent != "" && (s.Parent < 0 || x.spans[s.Parent].Name != parent)) {
			continue
		}
		n++
		ns += s.End - s.Start
	}
	return n, ns
}

// self returns the total self time of the spans called name: each span's
// duration minus the part of it its child spans cover.
func (x *spanIndex) self(name string) int64 {
	var total int64
	for i, s := range x.spans {
		if s.Name != name {
			continue
		}
		var ivs [][2]int64
		for _, c := range x.children[i] {
			ivs = append(ivs, [2]int64{max(x.spans[c].Start, s.Start), min(x.spans[c].End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		total += s.End - s.Start - covered
	}
	return total
}

// write dumps the spans as JSON lines, one span per line; a span's parent is
// the zero-based line number of the enclosing span.
func (x *spanIndex) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range x.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
