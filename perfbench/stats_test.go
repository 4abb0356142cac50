package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileCarriesSampleCount(t *testing.T) {
	var s Sample
	if q := s.Median(); q.N != 0 || !math.IsNaN(q.Value) {
		t.Fatalf("empty sample: got %+v, want NaN with n=0", q)
	}
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {90, 3.7}, {100, 4},
	}
	for _, c := range cases {
		q := s.Percentile(c.p)
		if math.Abs(q.Value-c.want) > 1e-12 || q.N != 4 {
			t.Errorf("p%v = %+v, want %v with n=4", c.p, q, c.want)
		}
	}
	// Percentile must not reorder the caller's values.
	if s.Values[0] != 4 {
		t.Errorf("Percentile sorted the sample in place: %v", s.Values)
	}
	var one Sample
	one.Add(7)
	if q := one.Percentile(90); q.Value != 7 || q.N != 1 {
		t.Errorf("single value: got %+v", q)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := Ratio{Num: 3, Den: 4}
	if got, want := r.String(), "0.750 (3/4)"; got != want {
		t.Errorf("Ratio.String() = %q, want %q", got, want)
	}
	if got := (Ratio{Num: 1.5, Den: 0.25}).String(); !strings.Contains(got, "(1.5/0.25)") {
		t.Errorf("fractional operands lost: %q", got)
	}
	if v := (Ratio{Num: 1, Den: 0}).Value(); !math.IsNaN(v) {
		t.Errorf("zero base: got %v, want NaN", v)
	}
	if got := (Ratio{Num: 0, Den: 0}).String(); !strings.Contains(got, "(0/0)") {
		t.Errorf("zero base must still print its base: %q", got)
	}
}

// span builds a span with start and end in milliseconds.
func span(id, parent int, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		span(0, -1, "root", 0, 100),
		span(1, 0, "a", 10, 40),
		span(2, 0, "b", 30, 50),  // overlaps a: the union is 10..50
		span(3, 0, "c", 90, 120), // runs past its parent: clipped to 90..100
		span(4, 1, "leaf", 15, 20),
	}
	self := SelfTimes(spans)
	want := []time.Duration{
		50 * time.Millisecond, // 100 - |10..50 ∪ 90..100|
		25 * time.Millisecond, // 30 - 5
		20 * time.Millisecond,
		30 * time.Millisecond,
		5 * time.Millisecond,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTableAggregatesByName(t *testing.T) {
	spans := []Span{
		span(0, -1, "run", 0, 10),
		span(1, 0, "step", 0, 4),
		span(2, 0, "step", 5, 9),
	}
	rows := SelfTable(spans)
	if len(rows) != 2 || rows[0].Name != "step" || rows[0].Count != 2 ||
		rows[0].Self != 8*time.Millisecond || rows[1].Self != 2*time.Millisecond {
		t.Fatalf("unexpected table %+v", rows)
	}
	out := FormatSelfTable(rows)
	if !strings.Contains(out, "of 10.000 ms") {
		t.Errorf("self shares must print their base:\n%s", out)
	}
}

func TestTracerNestsSpansAndNilIsFree(t *testing.T) {
	tr := NewTracer("run-1")
	outer := tr.Begin("outer")
	tr.Time("inner", func() {})
	tr.End(outer)
	sp := tr.Spans()
	if len(sp) != 2 || sp[1].Parent != 0 || sp[0].Parent != -1 || sp[1].Run != "run-1" {
		t.Fatalf("unexpected spans %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Errorf("child %+v not inside parent %+v", sp[1], sp[0])
	}
	var off *Tracer
	if id := off.Begin("x"); id != -1 {
		t.Errorf("nil tracer Begin = %d", id)
	}
	off.End(-1)
	if off.Spans() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}
