package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errShed marks a request the server refused under load (HTTP 429).
var errShed = errors.New("shed")

// sendFunc performs request i and returns nil, errShed, or another error.
type sendFunc func(i int) error

// phase is the record of one traffic phase.
type phase struct {
	name                   string
	sent, ok, shed, failed atomic.Int64
	latency                samples // seconds; open loop: from the due time
	late                   samples // seconds the send started after its due time
	rtt                    samples // seconds from send to reply
}

func (p *phase) record(err error) {
	p.sent.Add(1)
	switch {
	case err == nil:
		p.ok.Add(1)
	case errors.Is(err, errShed):
		p.shed.Add(1)
	default:
		p.failed.Add(1)
	}
}

// openLoop sends requests on a fixed schedule — request i is due at
// start + i/rate — for d, from `senders` goroutines. The schedule never
// slows down for the server: a sender that falls behind sends the overdue
// requests at once. Each request's latency runs from its due time, so a
// stall also charges the wait it imposes on the requests queued behind it,
// and the generator's own lateness is reported separately.
func openLoop(name string, rate float64, d time.Duration, senders int, send sendFunc) *phase {
	p := &phase{name: name}
	period := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(i) * period)
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := send(int(i))
				done := time.Now()
				p.record(err)
				p.late.addDur(sent.Sub(due))
				if err == nil {
					p.latency.addDur(done.Sub(due))
					p.rtt.addDur(done.Sub(sent))
				}
			}
		}()
	}
	wg.Wait()
	return p
}

// closedLoop runs `senders` clients that each send their next request as
// soon as the previous reply arrives, for d. Every burst completed requests
// it records the burst's wall time.
func closedLoop(name string, d time.Duration, senders, burst int, send sendFunc) (*phase, *samples) {
	p := &phase{name: name}
	bursts := &samples{}
	var next, done atomic.Int64
	var mu sync.Mutex
	last := time.Now()
	end := last.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				sent := time.Now()
				err := send(int(i))
				now := time.Now()
				p.record(err)
				if err == nil {
					p.latency.addDur(now.Sub(sent))
					p.rtt.addDur(now.Sub(sent))
				}
				if done.Add(1)%int64(burst) == 0 {
					mu.Lock()
					bursts.addDur(now.Sub(last))
					last = now
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return p, bursts
}
