package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span is one timed call from the benchmark into a layer of the system.
// Start and End are wall-clock offsets from the tracer's origin; Parent
// is the index of the enclosing span (-1 at the root) and Run the ID
// shared by every span of one benchmark run.
type Span struct {
	ID     int
	Parent int
	Run    string
	Name   string
	Start  time.Duration
	End    time.Duration
}

// Tracer records spans in memory from a single caller goroutine. A nil
// *Tracer is the untraced configuration: Begin and End cost one branch.
type Tracer struct {
	run   string
	t0    time.Time
	spans []Span
	stack []int
}

// NewTracer starts a tracer for one run.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now()}
}

// Begin opens a span nested in the innermost open one and returns its
// ID for End.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// End closes the span Begin returned; spans must close innermost first.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// Time runs fn inside a span.
func (t *Tracer) Time(name string, fn func()) {
	id := t.Begin(name)
	fn()
	t.End(id)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteJSONL writes one JSON object per span.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"run":%q,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Run, s.ID, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	return bw.Flush()
}

// writeTraceFile writes the spans under dir as <run>.jsonl.
func writeTraceFile(dir, run string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	if err := WriteJSONL(f, spans); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}

// interval is a half-open wall-clock range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals, clipped to
// [lo, hi): overlapping children are counted once.
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range clipped {
		if curHi < 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	total += curHi - curLo
	return total
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - unionLen(kids[i], s.Start, s.End)
	}
	return self
}

// SelfRow aggregates the spans sharing one name.
type SelfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// SelfTable aggregates self times by span name, largest self time first.
func SelfTable(spans []Span) []SelfRow {
	self := SelfTimes(spans)
	rows := map[string]*SelfRow{}
	for i, s := range spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &SelfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[i]
	}
	out := make([]SelfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FormatSelfTable renders the rows with each self time's share of the
// summed self time (which equals the root spans' wall time).
func FormatSelfTable(rows []SelfRow) string {
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-28s %8s %12s %12s  %s\n", "span (wall clock)", "count", "total_ms", "self_ms", "self share")
	for _, r := range rows {
		share := Ratio{Num: float64(r.Self.Microseconds()), Den: float64(sum.Microseconds())}
		fmt.Fprintf(&sb, "  %-28s %8d %12.3f %12.3f  %.3f of %.3f ms\n", r.Name, r.Count,
			ms(r.Total), ms(r.Self), share.Value(), ms(sum))
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
