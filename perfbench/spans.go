package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one HTTP request share ReqID (its
// X-Request-Id); Parent is the ID of the span that caused this one (0 for
// a root).
type span struct {
	ID, Parent int
	Name       string
	Layer      string
	ReqID      string
	Start, End time.Duration // offsets from the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// open holds, per request ID, the IDs of that request's spans still
	// running, oldest first: a span begun for a request is parented under
	// the newest open span of another layer (client > gateway > shard;
	// a hedged second shard call still lands under the gateway).
	open map[string][]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[string][]int{}}
}

// begin opens a span. parent is used as given unless reqID is set, in
// which case the request's newest open span of another layer is the
// parent.
func (r *recorder) begin(name, layer, reqID string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	if reqID != "" {
		stack := r.open[reqID]
		for i := len(stack) - 1; i >= 0; i-- {
			if r.spans[stack[i]-1].Layer != layer {
				parent = stack[i]
				break
			}
		}
		r.open[reqID] = append(stack, id)
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, ReqID: reqID, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if s.ReqID != "" {
		stack := r.open[s.ReqID]
		for i, o := range stack {
			if o == id {
				stack = append(stack[:i], stack[i+1:]...)
				break
			}
		}
		if len(stack) == 0 {
			delete(r.open, s.ReqID)
		} else {
			r.open[s.ReqID] = stack
		}
	}
}

// add records a span that has already completed.
func (r *recorder) add(name, layer string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// timed runs fn inside a span.
func (r *recorder) timed(name, layer string, parent int, fn func(id int)) time.Duration {
	t0 := time.Now()
	id := r.begin(name, layer, "", parent)
	fn(id)
	r.end(id)
	return time.Since(t0)
}

// closed returns a copy of the completed spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children, such as a
// hedged pair, count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events; one track per request, track 0 for spans outside requests).
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tracks := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		tid := 0
		if s.ReqID != "" {
			t, ok := tracks[s.ReqID]
			if !ok {
				t = len(tracks) + 1
				tracks[s.ReqID] = t
			}
			tid = t
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.ReqID != "" {
			args["requestId"] = s.ReqID
		}
		b, err := json.Marshal(event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: tid, Args: args})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
