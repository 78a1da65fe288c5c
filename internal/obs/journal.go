package obs

import (
	"sync"
	"time"
)

// Event is one structured journal entry. Seq is assigned by the journal
// and strictly increases in append order, so "offer before commit" style
// control-plane ordering is checkable after the fact even once the ring
// has wrapped.
type Event struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Shard  int       `json:"shard"` // -1 when not shard-scoped
	Detail string    `json:"detail,omitempty"`
}

// Journal is a fixed-capacity ring of control-plane events: shard
// deaths/promotions/rejoins, reader attach/detach, credit stalls, corpus
// refresh cycles. Appends are mutex-guarded — every recorded event is a
// control-path occurrence (per-failover, per-refresh-cycle), never
// per-step or per-frame, so the lock is uncontended in practice. A nil
// journal no-ops.
type Journal struct {
	mu  sync.Mutex
	buf []Event
	cap int
	seq uint64
}

// NewJournal builds a journal holding the most recent capacity events.
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{cap: capacity}
}

// Record appends one event and returns its sequence number (0 on a nil
// journal or when recording is disabled).
func (j *Journal) Record(kind string, shard int, detail string) uint64 {
	if j == nil || !enabled.Load() {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e := Event{Seq: j.seq, At: time.Now(), Kind: kind, Shard: shard, Detail: detail}
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, e)
	} else {
		copy(j.buf, j.buf[1:])
		j.buf[len(j.buf)-1] = e
	}
	return j.seq
}

// Seq returns the sequence number of the newest event (0 when empty).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Tail returns up to n most recent events, oldest first. n <= 0 returns
// everything retained.
func (j *Journal) Tail(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > len(j.buf) {
		n = len(j.buf)
	}
	out := make([]Event, n)
	copy(out, j.buf[len(j.buf)-n:])
	return out
}

// Since returns the retained events with Seq > after, oldest first — the
// way tests assert ordering across a scripted window without clearing the
// process-global journal.
func (j *Journal) Since(after uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.buf {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// Journal event kinds recorded by the serving layers. Collected here so
// scrapers and tests share one vocabulary.
const (
	EvShardDeath    = "shard.down"
	EvShardPromote  = "shard.promote"
	EvShardRejoin   = "shard.rejoin"
	EvReaderAttach  = "reader.attach"
	EvReaderDetach  = "reader.detach"
	EvCreditStall   = "credit.stall"
	EvCorpusRefresh = "corpus.refresh"
)
