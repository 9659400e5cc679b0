package par

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		hits := make([]int32, n)
		ForEach(nil, workers, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(nil, 4, 0, func(int) { called = true })
	ForEach(nil, 4, -1, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var got []int
	ForEach(nil, 1, 5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken: %v", got)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := []int{5, 3, 9, 1, 7, 2}
	for _, workers := range []int{1, 4} {
		out, _ := Map(nil, workers, in, func(i, v int) int { return v * v })
		for i, v := range out {
			if v != in[i]*in[i] {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("non-positive requests must normalize to >= 1")
	}
	if Workers(5) != 5 {
		t.Error("positive requests pass through")
	}
}

func TestCellComputesOnce(t *testing.T) {
	var c Cell[int]
	var calls atomic.Int32
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if v := c.Get(func() int { calls.Add(1); return 42 }); v != 42 {
				t.Error("wrong value")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times", calls.Load())
	}
}

func TestGroupPerKeyMemoization(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	done := make(chan struct{})
	keys := []string{"a", "b", "a", "b", "a", "b"}
	for _, k := range keys {
		k := k
		go func() {
			defer func() { done <- struct{}{} }()
			g.Get(k, func() int {
				calls.Add(1)
				return len(k)
			})
		}()
	}
	for range keys {
		<-done
	}
	if calls.Load() != 2 {
		t.Errorf("compute ran %d times, want once per key", calls.Load())
	}
}

func TestForEachCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := ForEach(ctx, 1, 100, func(i int) { ran++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("pre-cancelled serial fan-out ran %d items", ran)
	}
}

func TestForEachCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 4, 10000, func(i int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop the fan-out (%d ran)", n)
	}
}

func TestForEachCtxCompletesDespiteLateCancel(t *testing.T) {
	// A cancellation that lands after the last item completed is not a
	// failed fan-out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	if err := ForEach(ctx, 4, 100, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 100 {
		t.Errorf("ran %d of 100", ran.Load())
	}
}

func TestMapCtxMatchesMap(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	want, err := Map(nil, 4, items, func(_, v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	got, err := Map(context.Background(), 4, items, func(_, v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Map under a live context diverged from Map under nil")
	}
}

func TestErrCellMemoizesSuccess(t *testing.T) {
	var c ErrCell[int]
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Get(compute)
		if err != nil || v != 42 {
			t.Fatalf("Get = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
}

func TestErrCellRetriesAfterFailure(t *testing.T) {
	var c ErrCell[int]
	boom := errors.New("boom")
	if _, err := c.Get(func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Get error = %v, want boom", err)
	}
	// A failure must not poison the cell: the next caller retries and its
	// success is then memoized.
	v, err := c.Get(func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Get = %d, %v", v, err)
	}
	v, err = c.Get(func() (int, error) { t.Error("recomputed after success"); return 0, nil })
	if err != nil || v != 7 {
		t.Fatalf("memoized Get = %d, %v", v, err)
	}
}

func TestErrGroupKeysIndependent(t *testing.T) {
	var g ErrGroup[string, int]
	boom := errors.New("boom")
	if _, err := g.Get("a", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("a: error = %v", err)
	}
	if v, err := g.Get("b", func() (int, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("b: Get = %d, %v", v, err)
	}
	// "a" failed above, so it retries; "b" stays memoized.
	if v, err := g.Get("a", func() (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Fatalf("a retry: Get = %d, %v", v, err)
	}
	if v, err := g.Get("b", func() (int, error) { t.Error("b recomputed"); return 0, nil }); err != nil || v != 2 {
		t.Fatalf("b memoized: Get = %d, %v", v, err)
	}
}

func TestErrGroupConcurrentSameKey(t *testing.T) {
	var g ErrGroup[int, int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Get(1, func() (int, error) { computes.Add(1); return 9, nil })
			if err != nil || v != 9 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", computes.Load())
	}
}
