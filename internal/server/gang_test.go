package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxsumdiv/internal/core"
)

// gangOutcome is one dispatch caller's result.
type gangOutcome struct {
	ans answer
	err error
}

// TestDispatcherGangFusesLambdas drives the multi-λ gang deterministically
// with a blocking leader: while the leader is mid-solve, a same-λ smaller-k
// query joins covered, and three different-λ queries gather into the next
// generation. Releasing the leader promotes the gathered call; exactly one
// member claims it and runs ONE fused solve whose frozen targets carry every
// gathered λ at its max k.
func TestDispatcherGangFusesLambdas(t *testing.T) {
	d := newDispatcher(8)
	key := gangKey{seq: 1, algo: core.AlgoGreedy}
	leaderIn := make(chan struct{})  // closed when the leader is inside run
	leaderOut := make(chan struct{}) // leader's run blocks until this closes
	traceFor := map[float64]*core.GreedyTrace{0.5: {}, 0.9: {}, 1.5: {}}

	var runMu sync.Mutex
	var runs [][]core.LambdaTarget
	runFn := func(block bool) runFunc {
		return func(ts []core.LambdaTarget) (map[float64]answer, error) {
			runMu.Lock()
			runs = append(runs, ts)
			runMu.Unlock()
			if block {
				close(leaderIn)
				<-leaderOut
			}
			out := make(map[float64]answer, len(ts))
			for _, target := range ts {
				out[target.Lambda] = traceFor[target.Lambda]
			}
			return out, nil
		}
	}
	neverRun := func([]core.LambdaTarget) (map[float64]answer, error) {
		t.Error("covered joiner ran its own solve")
		return nil, nil
	}
	waitGang := func(cond func(g *gang) bool) {
		for {
			d.mu.Lock()
			g := d.gangs[key]
			ok := g != nil && cond(g)
			d.mu.Unlock()
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	leaderDone := make(chan gangOutcome, 1)
	go func() {
		tr, err := d.dispatch(context.Background(), key, 0.5, 10, runFn(true))
		leaderDone <- gangOutcome{tr, err}
	}()
	<-leaderIn

	// Covered join: same λ, smaller k — answered by the running solve's
	// trace prefix, its run closure never executes.
	coveredDone := make(chan gangOutcome, 1)
	go func() {
		tr, err := d.dispatch(context.Background(), key, 0.5, 3, neverRun)
		coveredDone <- gangOutcome{tr, err}
	}()
	waitGang(func(g *gang) bool { return g.running.waiters == 2 })

	// Mixed-λ gatherers: the running call is claimed (targets frozen), so
	// they enroll in the next generation. Two share λ=0.9 with different k —
	// the frozen target must carry the max.
	gathered := []struct {
		lambda float64
		k      int
	}{{0.9, 7}, {1.5, 5}, {0.9, 12}}
	gatherDone := make(chan gangOutcome, len(gathered))
	for _, gq := range gathered {
		go func() {
			tr, err := d.dispatch(context.Background(), key, gq.lambda, gq.k, runFn(false))
			gatherDone <- gangOutcome{tr, err}
		}()
	}
	waitGang(func(g *gang) bool { return g.next != nil && g.next.waiters == len(gathered) })

	close(leaderOut)
	for _, got := range []gangOutcome{<-leaderDone, <-coveredDone} {
		if got.err != nil || got.ans != traceFor[0.5] {
			t.Fatalf("λ=0.5 member got (%p, %v), want the leader's trace %p", got.ans, got.err, traceFor[0.5])
		}
	}
	seen := map[answer]int{}
	for range gathered {
		got := <-gatherDone
		if got.err != nil {
			t.Fatal(got.err)
		}
		seen[got.ans]++
	}
	if seen[traceFor[0.9]] != 2 || seen[traceFor[1.5]] != 1 {
		t.Fatalf("gathered members got traces %v, want 2× λ=0.9 and 1× λ=1.5", seen)
	}

	runMu.Lock()
	defer runMu.Unlock()
	if len(runs) != 2 {
		t.Fatalf("ran %d solves for 5 queries, want 2 (leader + one fused gang)", len(runs))
	}
	wantLeader := []core.LambdaTarget{{Lambda: 0.5, K: 10}}
	wantGang := []core.LambdaTarget{{Lambda: 0.9, K: 12}, {Lambda: 1.5, K: 5}}
	for i, want := range [][]core.LambdaTarget{wantLeader, wantGang} {
		if len(runs[i]) != len(want) {
			t.Fatalf("solve %d targets %v, want %v", i, runs[i], want)
		}
		for j := range want {
			if runs[i][j] != want[j] {
				t.Fatalf("solve %d targets %v, want %v (λ-sorted, max-k merged)", i, runs[i], want)
			}
		}
	}
	if co, solo := d.counters(); co != 3 || solo != 2 {
		t.Fatalf("counters (coalesced=%d, solo=%d), want (3, 2)", co, solo)
	}
	d.mu.Lock()
	idle := len(d.gangs) == 0
	d.mu.Unlock()
	if !idle {
		t.Fatal("gang map not cleaned up after both generations finished")
	}
}

// TestDispatcherGangJoinRetryOnLeaderCancel pins the fallback contract: a
// covered joiner whose leader died of the *leader's* context gets
// errJoinRetry (solveFull then re-solves solo) rather than inheriting a
// cancellation that isn't its own.
func TestDispatcherGangJoinRetryOnLeaderCancel(t *testing.T) {
	d := newDispatcher(4)
	key := gangKey{seq: 2, algo: core.AlgoOblivious}
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	go func() {
		d.dispatch(context.Background(), key, 0.7, 5,
			func([]core.LambdaTarget) (map[float64]answer, error) {
				close(leaderIn)
				<-leaderOut
				return nil, context.Canceled
			})
	}()
	<-leaderIn
	joinErr := make(chan error, 1)
	go func() {
		_, err := d.dispatch(context.Background(), key, 0.7, 5,
			func([]core.LambdaTarget) (map[float64]answer, error) {
				t.Error("covered joiner ran its own solve")
				return nil, nil
			})
		joinErr <- err
	}()
	for {
		d.mu.Lock()
		g := d.gangs[key]
		waiting := g != nil && g.running.waiters == 2
		d.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderOut)
	if err := <-joinErr; err != errJoinRetry {
		t.Fatalf("covered joiner got %v, want errJoinRetry", err)
	}
	if co, _ := d.counters(); co != 0 {
		t.Fatalf("failed join counted as coalesced (%d)", co)
	}
}

// TestDispatcherGangBothGenerationsFull pins the back-pressure escape hatch:
// with the running call full and the next generation full, a further query
// gets errJoinRetry immediately and solves solo instead of queueing behind
// two solves' worth of latency.
func TestDispatcherGangBothGenerationsFull(t *testing.T) {
	d := newDispatcher(2)
	key := gangKey{seq: 3, algo: core.AlgoGreedy}
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	tr := &core.GreedyTrace{}
	fill := func(block bool) runFunc {
		return func(ts []core.LambdaTarget) (map[float64]answer, error) {
			if block {
				close(leaderIn)
				<-leaderOut
			}
			out := make(map[float64]answer, len(ts))
			for _, target := range ts {
				out[target.Lambda] = tr
			}
			return out, nil
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.dispatch(context.Background(), key, 0.5, 5, fill(true))
	}()
	<-leaderIn
	wg.Add(1)
	go func() { // covered joiner fills the running call to the limit
		defer wg.Done()
		d.dispatch(context.Background(), key, 0.5, 5, fill(false))
	}()
	for i := 0; i < 2; i++ { // two mixed-λ gatherers fill the next generation
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.dispatch(context.Background(), key, 0.9+float64(i), 5, fill(false))
		}()
	}
	for {
		d.mu.Lock()
		g := d.gangs[key]
		full := g != nil && g.running.waiters == 2 && g.next != nil && g.next.waiters == 2
		d.mu.Unlock()
		if full {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := d.dispatch(context.Background(), key, 2.5, 5, fill(false)); err != errJoinRetry {
		t.Fatalf("query against two full generations got %v, want errJoinRetry", err)
	}
	close(leaderOut)
	wg.Wait()
}

// TestDispatcherGangMemberCancelCleansUp pins abandoned-call cleanup: a
// gathered member whose context expires before promotion gets its own
// ctx.Err(), and as the last member of the unclaimed next generation it
// removes that call so the finished leader retires the key to idle instead
// of promoting a ghost generation with no members.
func TestDispatcherGangMemberCancelCleansUp(t *testing.T) {
	d := newDispatcher(8)
	key := gangKey{seq: 4, algo: core.AlgoGreedy}
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	tr := &core.GreedyTrace{}
	leaderDone := make(chan gangOutcome, 1)
	go func() {
		got, err := d.dispatch(context.Background(), key, 0.5, 5,
			func([]core.LambdaTarget) (map[float64]answer, error) {
				close(leaderIn)
				<-leaderOut
				return map[float64]answer{0.5: tr}, nil
			})
		leaderDone <- gangOutcome{got, err}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	memberErr := make(chan error, 1)
	go func() {
		_, err := d.dispatch(ctx, key, 0.9, 5,
			func([]core.LambdaTarget) (map[float64]answer, error) {
				t.Error("cancelled member ran a solve")
				return nil, nil
			})
		memberErr <- err
	}()
	for {
		d.mu.Lock()
		g := d.gangs[key]
		gathered := g != nil && g.next != nil && g.next.waiters == 1
		d.mu.Unlock()
		if gathered {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-memberErr; err != context.Canceled {
		t.Fatalf("cancelled member got %v, want context.Canceled", err)
	}
	d.mu.Lock()
	g := d.gangs[key]
	dropped := g != nil && g.next == nil
	d.mu.Unlock()
	if !dropped {
		t.Fatal("abandoned next generation not dropped")
	}

	close(leaderOut)
	if got := <-leaderDone; got.err != nil || got.ans != tr {
		t.Fatalf("leader got (%p, %v), want (%p, nil)", got.ans, got.err, tr)
	}
	d.mu.Lock()
	idle := len(d.gangs) == 0
	d.mu.Unlock()
	if !idle {
		t.Fatal("key not idle after leader finished with no next generation")
	}
}

// TestServerMixedLambdaCoalesces is the end-to-end acceptance check for the
// gang: concurrent greedy queries that differ ONLY in λ coalesce and bump
// queries_coalesced. Real solves finish in microseconds, so instead of
// hoping a storm overlaps, the test holds the epoch's gang open with a
// blocking fake leader, lets three real /diversify requests gather behind
// it, and releases: one member runs the fused SolveMultiTrace through the
// full corpus path, the other two ride it.
func TestServerMixedLambdaCoalesces(t *testing.T) {
	s, err := New(Config{Shards: 1, Lambda: 1, Parallelism: 1, Batch: 16, Backend: BackendVecF32})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, s, 200, 8, 11)
	// A throwaway query flushes the load and publishes the epoch every
	// member below pins.
	if _, err := s.Diversify(context.Background(), DiversifyRequest{K: 1, Algorithm: "greedy"}); err != nil {
		t.Fatal(err)
	}
	e := s.corpus.store.pin()
	seq := e.seq
	s.corpus.store.unpin(e)

	// Reference answers from a solve with nothing in flight (the
	// batched-vs-solo matrix test pins that this equals a Batch=1 server).
	lambdas := []float64{0.5, 1.0, 1.5}
	want := make([]*DiversifyResponse, len(lambdas))
	for i, lambda := range lambdas {
		l := lambda
		if want[i], err = s.Diversify(context.Background(), DiversifyRequest{K: 24, Algorithm: "greedy", Lambda: &l}); err != nil {
			t.Fatal(err)
		}
	}
	coBefore, _ := s.corpus.batch.counters()

	d := s.corpus.batch
	key := gangKey{seq: seq, algo: core.AlgoGreedy}
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	fakeDone := make(chan error, 1)
	go func() {
		_, err := d.dispatch(context.Background(), key, 0.0625, 1,
			func([]core.LambdaTarget) (map[float64]answer, error) {
				close(leaderIn)
				<-leaderOut
				return map[float64]answer{0.0625: &core.GreedyTrace{}}, nil
			})
		fakeDone <- err
	}()
	<-leaderIn

	got := make([]*DiversifyResponse, len(lambdas))
	var wg sync.WaitGroup
	for i, lambda := range lambdas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := lambda
			resp, err := s.Diversify(context.Background(), DiversifyRequest{K: 24, Algorithm: "greedy", Lambda: &l})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = resp
		}()
	}
	// The three λs are neither in the fake leader's frozen targets nor
	// mutually identical: all gather into the next generation.
	for {
		d.mu.Lock()
		g := d.gangs[key]
		gathered := g != nil && g.next != nil && g.next.waiters == len(lambdas)
		d.mu.Unlock()
		if gathered {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderOut)
	wg.Wait()
	if err := <-fakeDone; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	for i := range lambdas {
		if len(got[i].Items) != len(want[i].Items) {
			t.Fatalf("λ=%g: %d items coalesced, %d solo", lambdas[i], len(got[i].Items), len(want[i].Items))
		}
		for j := range got[i].Items {
			if got[i].Items[j].ID != want[i].Items[j].ID {
				t.Fatalf("λ=%g item %d: id %q coalesced, %q solo", lambdas[i], j, got[i].Items[j].ID, want[i].Items[j].ID)
			}
		}
		if got[i].Value != want[i].Value || got[i].Quality != want[i].Quality || got[i].Dispersion != want[i].Dispersion {
			t.Fatalf("λ=%g: values (%v %v %v) coalesced, (%v %v %v) solo", lambdas[i],
				got[i].Value, got[i].Quality, got[i].Dispersion, want[i].Value, want[i].Quality, want[i].Dispersion)
		}
	}
	coAfter, _ := s.corpus.batch.counters()
	if coAfter-coBefore != uint64(len(lambdas)-1) {
		t.Fatalf("queries_coalesced moved %d, want %d (one member leads the fused solve, the rest ride it)",
			coAfter-coBefore, len(lambdas)-1)
	}
	if st := s.Stats(); st.Corpus.QueriesCoalesced != coAfter {
		t.Fatalf("/stats reports %d coalesced, dispatcher %d", st.Corpus.QueriesCoalesced, coAfter)
	}
}

// TestDispatcherLeaderYieldsToRunnableJoiners pins the leader's yield
// before its solve. On one processor, eight identical queries become
// runnable at once; the first to run leads, and its solve — a CPU-bound
// loop that never parks, like the inline scan kernels below their fan-out
// minimum — would otherwise finish before any other query reached the
// dispatcher, so every query would lead a solve of its own. With the yield
// the runnable queries join the leader's call. The scheduler may resume a
// yielded leader before every joiner has run (it polls the global run
// queue now and then), so one more generation can form; allowing half the
// queries to lead still fails without the yield, where all eight do.
func TestDispatcherLeaderYieldsToRunnableJoiners(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := newDispatcher(8)
	key := gangKey{seq: 1, algo: core.AlgoGreedy}
	var solves atomic.Int32
	run := func([]core.LambdaTarget) (map[float64]answer, error) {
		solves.Add(1)
		for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
		}
		return map[float64]answer{0.5: &core.GreedyTrace{}}, nil
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := d.dispatch(context.Background(), key, 0.5, 4, run); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := solves.Load(); n > 4 {
		t.Fatalf("8 identical runnable queries ran %d solves, want at most 4", n)
	}
	if co, so := d.counters(); co+so != 8 || so != uint64(solves.Load()) {
		t.Fatalf("coalesced %d, solo %d for 8 queries and %d solves", co, so, solves.Load())
	}
}
