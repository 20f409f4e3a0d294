package rept

// Batch is a reusable buffer of signed stream events for the bulk
// ingest path (Concurrent.ApplyBatch): callers accumulate a request's
// (or an interval's) events into a Batch and hand the whole thing to
// the estimator at once, so the ingest mutex, the fan-out to every
// consumer queue, degree tracking, and barrier bookkeeping are paid per
// segment of up to 1024 events instead of per event.
//
// The zero value is ready to use. Reset keeps the backing array, so a
// long-lived Batch reaches a steady state where filling and applying
// it allocates nothing. A Batch is not safe for concurrent mutation;
// build it in one goroutine (distinct goroutines may each own their
// own Batch and call ApplyBatch concurrently).
type Batch struct {
	ups []Update
}

// Insert appends one edge insertion.
func (b *Batch) Insert(u, v NodeID) { b.ups = append(b.ups, Update{U: u, V: v}) }

// Delete appends one edge deletion. Applying a batch with deletions
// requires ConcurrentConfig.FullyDynamic.
func (b *Batch) Delete(u, v NodeID) { b.ups = append(b.ups, Update{U: u, V: v, Del: true}) }

// Push appends one signed event.
func (b *Batch) Push(up Update) { b.ups = append(b.ups, up) }

// Len returns the number of buffered events.
func (b *Batch) Len() int { return len(b.ups) }

// Reset empties the batch for reuse, keeping the backing array.
func (b *Batch) Reset() { b.ups = b.ups[:0] }
