package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"perfscale/internal/sim"
)

// Space is the enumerated fault space of one clean run: every injection
// coordinate the campaign sweeps is read off the observer stream of a real
// execution, never guessed. It is serializable and a pure function of the
// target, so a resumed campaign rebuilds the identical cell list from the
// checkpointed Space.
type Space struct {
	Ranks    int     `json:"ranks"`
	Makespan float64 `json:"makespan"`
	// Phases are the distinct phase marks with the earliest virtual time
	// any rank entered them — the crash-injection candidates.
	Phases []PhaseMark `json:"phases"`
	// Links are the directed rank pairs that actually communicated — the
	// drop/duplication/corruption candidates.
	Links []Link `json:"links"`
	// Windows are merged timer-activity windows (armed RTO and detector
	// spans) — the degraded-link window candidates, where latency
	// inflation races real protocol deadlines.
	Windows []Window `json:"windows"`
}

// PhaseMark is one named phase boundary at its earliest entry time.
type PhaseMark struct {
	Name string  `json:"name"`
	At   float64 `json:"at"`
}

// Link is one directed communicating pair.
type Link struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Window is one virtual-time interval [From, Until).
type Window struct {
	From  float64 `json:"from"`
	Until float64 `json:"until"`
}

// maxWindows caps the merged timer windows kept for the degraded-window
// grid; beyond this the grid stops adding scenario diversity.
const maxWindows = 6

// collector subscribes to the clean run and accumulates the raw
// coordinates. Callbacks fire concurrently across ranks (see the Observer
// contract), so every handler locks; the clean run happens once per
// campaign and contention is irrelevant next to simulation cost.
type collector struct {
	mu      sync.Mutex
	phases  map[string]float64
	links   map[Link]bool
	windows []Window
}

func newCollector() *collector {
	return &collector{phases: map[string]float64{}, links: map[Link]bool{}}
}

func (c *collector) OnCompute(rank int, seg sim.Segment) {}

func (c *collector) OnSend(rank int, seg sim.Segment) {
	c.mu.Lock()
	c.links[Link{Src: rank, Dst: seg.Peer}] = true
	c.mu.Unlock()
}

func (c *collector) OnRecv(rank int, seg sim.Segment) {}

func (c *collector) OnPhase(rank int, name string, at float64) {
	c.mu.Lock()
	if t, ok := c.phases[name]; !ok || at < t {
		c.phases[name] = at
	}
	c.mu.Unlock()
}

func (c *collector) OnFault(ev sim.FaultEvent) {}

func (c *collector) OnTimer(ev sim.TimerEvent) {
	if ev.Kind != sim.TimerArmed || ev.Deadline <= ev.Time {
		return
	}
	c.mu.Lock()
	c.windows = append(c.windows, Window{From: ev.Time, Until: ev.Deadline})
	c.mu.Unlock()
}

func (c *collector) OnCrash(ev sim.CrashEvent)       {}
func (c *collector) OnDeadlock(ev sim.DeadlockEvent) {}

// space finalizes the collected coordinates into a deterministic Space:
// everything sorted, timer windows merged and capped.
func (c *collector) space(ranks int, makespan float64) *Space {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := &Space{Ranks: ranks, Makespan: makespan}
	for name, at := range c.phases {
		sp.Phases = append(sp.Phases, PhaseMark{Name: name, At: at})
	}
	sort.Slice(sp.Phases, func(i, j int) bool {
		if sp.Phases[i].At != sp.Phases[j].At {
			return sp.Phases[i].At < sp.Phases[j].At
		}
		return sp.Phases[i].Name < sp.Phases[j].Name
	})
	for l := range c.links {
		sp.Links = append(sp.Links, l)
	}
	sort.Slice(sp.Links, func(i, j int) bool {
		if sp.Links[i].Src != sp.Links[j].Src {
			return sp.Links[i].Src < sp.Links[j].Src
		}
		return sp.Links[i].Dst < sp.Links[j].Dst
	})
	sp.Windows = mergeWindows(c.windows)
	if len(sp.Windows) > maxWindows {
		sp.Windows = sp.Windows[:maxWindows]
	}
	// A workload with no timers still gets windows: the intervals between
	// consecutive phase boundaries.
	if len(sp.Windows) == 0 {
		for i := 0; i+1 < len(sp.Phases); i++ {
			sp.Windows = append(sp.Windows, Window{From: sp.Phases[i].At, Until: sp.Phases[i+1].At})
			if len(sp.Windows) == maxWindows {
				break
			}
		}
	}
	return sp
}

// mergeWindows sorts raw [From, Until) intervals and merges overlaps.
func mergeWindows(raw []Window) []Window {
	if len(raw) == 0 {
		return nil
	}
	ws := append([]Window(nil), raw...)
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].From != ws[j].From {
			return ws[i].From < ws[j].From
		}
		return ws[i].Until < ws[j].Until
	})
	merged := []Window{ws[0]}
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.From <= last.Until {
			if w.Until > last.Until {
				last.Until = w.Until
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// Enumerate runs the target fault-free with the collector subscribed and
// returns the enumerated space plus the clean baseline outcome. Observed
// and blind runs are bit-identical (pinned by the conformance metamorphic
// family), so the same run serves as both enumeration and baseline.
func (t Target) Enumerate(ctx context.Context) (*Space, *Outcome, error) {
	col := newCollector()
	out, err := t.Run(ctx, nil, col)
	if err != nil {
		return nil, nil, err
	}
	if !out.Completed {
		return nil, nil, fmt.Errorf("campaign: clean enumeration run failed (%s: %s) — the target is broken before any fault is injected", out.ErrorKind, out.Error)
	}
	return col.space(t.Ranks(), out.SimTime), out, nil
}
