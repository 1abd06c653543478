//go:build !linux

package main

import (
	"context"
	"time"
)

func sleepUntil(ctx context.Context, t time.Time) error { return timerSleep(ctx, t) }
