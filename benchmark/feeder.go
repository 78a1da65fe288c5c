package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/bingo-rw/bingo"
)

// maxFeedLag invalidates a run: an open-loop feeder that is more than this
// far behind its timetable is no longer offering the stated rate.
const maxFeedLag = time.Second

var errTapeExhausted = errors.New("update tape exhausted")

// tape hands out the update stream in order; running off its end is an
// error, never a silent stop. The public API and the internal packages
// each have their own event type.
type tape[U any] struct {
	ups []U
	pos int
}

func (t *tape[U]) take(n int) ([]U, error) {
	if t.pos+n > len(t.ups) {
		return nil, fmt.Errorf("%w: want %d events at %d of %d", errTapeExhausted, n, t.pos, len(t.ups))
	}
	b := t.ups[t.pos : t.pos+n]
	t.pos += n
	return b, nil
}

// schedule is an absolute timetable: batch i is due at start + i·interval
// whatever happened to the batches before it, so a stall delays later
// batches' sends (which their latency then counts) without stretching the
// timetable. A zero interval makes every batch due the moment it is taken:
// a closed loop.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int, now time.Time) time.Time {
	if s.interval == 0 {
		return now
	}
	return s.start.Add(time.Duration(i) * s.interval)
}

// dueBy is how many batches fell due strictly before t.
func (s schedule) dueBy(t time.Time) int {
	if s.interval == 0 || !t.After(s.start) {
		return 0
	}
	return int((t.Sub(s.start)-1)/s.interval) + 1
}

// clock is the feeder's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// feedRun is what one feeder pass observed.
type feedRun struct {
	visibility []float64 // ms from a batch's due time to its send returning
	lag        []float64 // ms from a batch's due time to its send starting
	batches    int
	events     int
	backlog    int // batches already due but unsent when the pass ended
}

// feed sends batches of batchSize events on sch until the deadline passes
// or, when count > 0, until count batches went out. send must return once
// the batch is visible to queries.
func feed(clk clock, sch schedule, deadline time.Time, count, batchSize int, tp *tape[bingo.Update], send func([]bingo.Update) error) (feedRun, error) {
	var r feedRun
	for i := 0; count == 0 || i < count; i++ {
		now := clk.Now()
		due := sch.due(i, now)
		if count == 0 && !(due.Before(deadline) && now.Before(deadline)) {
			break // what is still due past the deadline is the backlog
		}
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		if late := now.Sub(due); late > maxFeedLag {
			return r, fmt.Errorf("feeder is %v behind its schedule at batch %d", late, i)
		}
		b, err := tp.take(batchSize)
		if err != nil {
			return r, err
		}
		if err := send(b); err != nil {
			return r, fmt.Errorf("batch %d: %w", i, err)
		}
		end := clk.Now()
		r.lag = append(r.lag, ms(now.Sub(due)))
		r.visibility = append(r.visibility, ms(end.Sub(due)))
		r.batches++
		r.events += len(b)
	}
	if n := sch.dueBy(minTime(clk.Now(), deadline)); n > r.batches {
		r.backlog = n - r.batches
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
