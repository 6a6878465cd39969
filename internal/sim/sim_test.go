package sim

import (
	"context"
	"errors"
	"testing"
)

func TestEnvStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new env pending = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final clock = %v, want 3", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d has %d", i, v)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestAfterAccumulates(t *testing.T) {
	e := NewEnv()
	var hits []Time
	e.After(1, func() {
		hits = append(hits, e.Now())
		e.After(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [1 3]", hits)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEnv()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEventsFiredCount(t *testing.T) {
	e := NewEnv()
	for i := 0; i < 7; i++ {
		e.After(Duration(i), func() {})
	}
	e.Run()
	if e.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", e.EventsFired())
	}
}

func TestFormatTime(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{5e-9, "5.0ns"},
		{2.5e-6, "2.50us"},
		{1.5e-3, "1.500ms"},
		{2.25, "2.2500s"},
	}
	for _, c := range cases {
		if got := FormatTime(c.t); got != c.want {
			t.Errorf("FormatTime(%v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestRunContextCompletesLikeRun(t *testing.T) {
	// A non-cancelled context must not change the simulation: same final
	// time as Run, all events fired.
	build := func() *Env {
		env := NewEnv()
		for i := 1; i <= 5000; i++ {
			env.Schedule(Time(i)*Microsecond, func() {})
		}
		return env
	}
	plain := build()
	want := plain.Run()
	env := build()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := env.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RunContext ended at %v, Run at %v", got, want)
	}
}

func TestRunContextStopsWhenCancelled(t *testing.T) {
	env := NewEnv()
	const n = 100_000
	fired := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i <= n; i++ {
		env.Schedule(Time(i)*Microsecond, func() {
			fired++
			if fired == 10 {
				cancel()
			}
		})
	}
	if _, err := env.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired == n {
		t.Fatal("cancellation did not stop the event loop early")
	}
}
