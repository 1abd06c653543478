package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// healthClock is the wall clock the scenario engine schedules open-loop
// arrivals with, recording how healthy the generator was. Each op calls
// SleepUntil with its scheduled arrival once a slot has claimed it:
//
//   - if the arrival is still ahead, the slot sleeps, and how late it woke
//     is the issue lag — the generator's own scheduling error;
//   - if the arrival has already passed, the op waited that long for an
//     in-flight slot — the backlog the system under load imposed.
type healthClock struct {
	mu    sync.Mutex
	lags  []time.Duration
	waits []slotWait
}

type slotWait struct {
	at   time.Time // scheduled arrival
	wait time.Duration
}

func (c *healthClock) Now() time.Time { return time.Now() }

func (c *healthClock) SleepUntil(ctx context.Context, t time.Time) error {
	now := time.Now()
	if !now.Before(t) {
		c.record(slotWait{at: t, wait: now.Sub(t)}, -1)
		return ctx.Err()
	}
	if err := sleepUntil(ctx, t); err != nil {
		return err
	}
	c.record(slotWait{at: t}, time.Since(t))
	return ctx.Err()
}

// timerSleep waits for the runtime timer to reach t, or for ctx.
func timerSleep(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *healthClock) record(w slotWait, lag time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waits = append(c.waits, w)
	if lag >= 0 {
		c.lags = append(c.lags, lag)
	}
}

// issueLag is the q-quantile of wake-up lateness over ops that slept.
func (c *healthClock) issueLag(q float64) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return percentile(append([]time.Duration(nil), c.lags...), q)
}

// slotWaitP99 is the 99th percentile of slot wait over every op (ops that
// found a free slot waited 0).
func (c *healthClock) slotWaitP99() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := make([]time.Duration, len(c.waits))
	for i, w := range c.waits {
		ds[i] = w.wait
	}
	return percentile(ds, 0.99)
}

// backlogGrowing reports whether slot waits rose over the phase: the mean
// wait of the last quarter of arrivals exceeds both twice that of the first
// quarter and floor. A system keeping up shows flat, mostly zero waits; an
// overloaded one queues more with every arrival.
func (c *healthClock) backlogGrowing(floor time.Duration) bool {
	c.mu.Lock()
	ws := append([]slotWait(nil), c.waits...)
	c.mu.Unlock()
	if len(ws) < 8 {
		return false
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].at.Before(ws[j].at) })
	q := len(ws) / 4
	mean := func(part []slotWait) time.Duration {
		var sum time.Duration
		for _, w := range part {
			sum += w.wait
		}
		return sum / time.Duration(len(part))
	}
	first, last := mean(ws[:q]), mean(ws[len(ws)-q:])
	return last > 2*first && last > floor
}
