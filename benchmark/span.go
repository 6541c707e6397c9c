package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval of the benchmark's own code around a call
// into a layer of the program: name, start, end, the span that caused it,
// and the workload it belongs to. Times are nanoseconds since the recorder
// was made.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its id; 0 when not recording.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, StartNs: now, EndNs: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// overheadFrac prices the recording of the spans under span id: their
// number times the measured cost of recording one, as a share of that
// span's duration. Timing recorded against unrecorded stretches of one run
// cannot resolve it: a workload's rounds differ by more than the recording
// costs.
func (r *recorder) overheadFrac(id int) float64 {
	if r == nil {
		return 0
	}
	const pairs = 20000
	scratch := newRecorder("")
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		scratch.end(scratch.begin(0, "calibrate"))
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / pairs

	r.mu.Lock()
	defer r.mu.Unlock()
	under := map[int]bool{id: true}
	count := 0
	for _, s := range r.spans { // parents precede children
		if under[s.Parent] {
			under[s.ID] = true
			count++
		}
	}
	top := r.spans[id-1]
	return float64(count) * perSpan / float64(top.EndNs-top.StartNs)
}

// finished returns the closed spans.
func (r *recorder) finished() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.EndNs >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
