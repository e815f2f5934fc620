package resultstore

import (
	"context"
	"sync"
	"time"
)

// writeBehindFlushTimeout bounds how long Close waits for the queue to
// drain. A dead remote tier must not be able to hold shutdown hostage; blobs
// still queued when the timeout fires are abandoned (counted as shed).
const writeBehindFlushTimeout = 5 * time.Second

// writeBehindOpTimeout bounds each background Put when the backend carries
// no envelope of its own. With an Envelope (the normal wiring) the
// envelope's per-op deadline fires first and this is just a backstop.
const writeBehindOpTimeout = 30 * time.Second

// writeBehind detaches snapshot writes from the backend: Save enqueues
// encoded blobs and returns; a single background writer drains the queue in
// FIFO order. The queue is bounded: when full, the oldest queued blob is
// shed (its project just stays cold on the shared tier), and a newer
// snapshot of a project already queued supersedes the queued bytes in place
// — the tier only ever wants the latest snapshot anyway.
type writeBehind struct {
	store *Store
	depth int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []wbItem
	inflight bool
	closed   bool
	done     chan struct{}

	queued     int64
	written    int64
	shed       int64
	superseded int64
	writeErrs  int64
}

type wbItem struct {
	project string
	key     string
	data    []byte
}

func newWriteBehind(s *Store, depth int) *writeBehind {
	wb := &writeBehind{store: s, depth: depth, done: make(chan struct{})}
	wb.cond = sync.NewCond(&wb.mu)
	go wb.loop()
	return wb
}

// enqueue adds (or supersedes) a blob. Never blocks: a full queue sheds its
// oldest entry first.
func (wb *writeBehind) enqueue(project, key string, data []byte) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.closed {
		wb.shed++
		return
	}
	wb.queued++
	for i := range wb.queue {
		if wb.queue[i].key == key {
			wb.queue[i].data = data
			wb.superseded++
			return
		}
	}
	if len(wb.queue) >= wb.depth {
		wb.queue = wb.queue[1:]
		wb.shed++
	}
	wb.queue = append(wb.queue, wbItem{project: project, key: key, data: data})
	wb.cond.Signal()
}

func (wb *writeBehind) loop() {
	defer close(wb.done)
	for {
		wb.mu.Lock()
		for len(wb.queue) == 0 && !wb.closed {
			wb.cond.Wait()
		}
		if len(wb.queue) == 0 && wb.closed {
			wb.mu.Unlock()
			return
		}
		item := wb.queue[0]
		wb.queue = wb.queue[1:]
		wb.inflight = true
		wb.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), writeBehindOpTimeout)
		err := wb.store.backend.Put(ctx, item.key, item.data)
		cancel()

		wb.mu.Lock()
		wb.inflight = false
		if err != nil {
			// The write is lost, the scan already succeeded; the project
			// stays cold on the tier until the next save.
			wb.writeErrs++
		} else {
			wb.written++
		}
		wb.mu.Unlock()
	}
}

// close stops accepting writes, waits (bounded) for the queue to drain, and
// counts anything still queued at the deadline as shed.
func (wb *writeBehind) close() {
	wb.mu.Lock()
	wb.closed = true
	wb.cond.Signal()
	wb.mu.Unlock()
	select {
	case <-wb.done:
	case <-time.After(writeBehindFlushTimeout):
		wb.mu.Lock()
		wb.shed += int64(len(wb.queue))
		wb.queue = nil
		wb.cond.Signal()
		wb.mu.Unlock()
		<-wb.done
	}
}

// fill copies the queue account into st. Safe to call concurrently with the
// writer.
func (wb *writeBehind) fill(st *BackendState) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	st.Queued = wb.queued
	st.Written = wb.written
	st.Shed = wb.shed
	st.Superseded = wb.superseded
	st.WriteErrors = wb.writeErrs
	st.QueueDepth = len(wb.queue)
	st.QueueCap = wb.depth
}

// flush blocks until the queue is empty or ctx fires (test helper — lets
// determinism suites force queued writes onto the tier before comparing).
func (wb *writeBehind) flush(ctx context.Context) error {
	for {
		wb.mu.Lock()
		idle := len(wb.queue) == 0 && !wb.inflight
		wb.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Flush exposes the write-behind drain on the store (no-op for a disk
// store, whose saves are synchronous).
func (s *Store) Flush(ctx context.Context) error {
	if s.wb == nil {
		return nil
	}
	return s.wb.flush(ctx)
}
