package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/queue"
)

// AddShard registers a backend — a local *queue.Service or a remote
// *queue.HTTPClient — under id and rebalances: every queue whose ring
// owner changed (≈1/(N+1) of them, all onto the new shard) is migrated
// by drain-and-forward before AddShard returns. Straggler forwarding
// for messages in flight on the old owners continues in the background.
func (r *Router) AddShard(id string, backend queue.API) error {
	if id == "" || strings.Contains(id, receiptSep) {
		return ErrBadShardID
	}
	if backend == nil {
		return fmt.Errorf("shard: nil backend for %q", id)
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	if _, ok := r.shards[id]; ok {
		// Ids are not reusable while a retired shard may still hold
		// straggler leases under the same name.
		r.mu.Unlock()
		return ErrShardExists
	}
	r.ring.add(id)
	r.shards[id] = backend
	moves := r.pendingMovesLocked()
	r.mu.Unlock()
	return r.runMoves(moves)
}

// RemoveShard takes a shard off the ring and migrates its queues to
// their new ring owners. The backend stays registered (retired) so
// receipts it issued keep resolving and forwarders can move its
// remaining in-flight messages as their leases expire.
func (r *Router) RemoveShard(id string) error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	if !r.ring.ids[id] {
		r.mu.Unlock()
		return ErrNoSuchShard
	}
	if len(r.ring.ids) == 1 && len(r.routes) > 0 {
		r.mu.Unlock()
		return fmt.Errorf("shard: cannot remove last shard %q while it holds queues: %w", id, ErrNoShards)
	}
	r.ring.remove(id)
	moves := r.pendingMovesLocked()
	r.mu.Unlock()
	return r.runMoves(moves)
}

// pendingMove is one queue whose route disagrees with the ring.
type pendingMove struct {
	name     string
	rt       *route
	from, to string
}

// pendingMovesLocked lists the queues whose current owner is no longer
// their ring owner — computed over each queue's placement-group key,
// so a whole group's queues move together. Caller holds r.mu.
func (r *Router) pendingMovesLocked() []pendingMove {
	var moves []pendingMove
	for name, rt := range r.routes {
		rt.mu.Lock()
		cur, group := rt.shard, rt.group
		rt.mu.Unlock()
		owner, ok := r.ringOwnerLocked(group, name)
		if !ok {
			continue
		}
		if owner != cur {
			moves = append(moves, pendingMove{name: name, rt: rt, from: cur, to: owner})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].name < moves[j].name })
	return moves
}

// runMoves migrates each queue in turn, attempting every move even
// when one fails — aborting on the first error would leave the rest of
// the namespace diverged from the already-updated ring with no record
// of which queues were skipped. Failed moves stay routed to their old
// shard (fully usable) and converge on the next Rebalance. Caller
// holds topoMu.
func (r *Router) runMoves(moves []pendingMove) error {
	var errs []error
	for _, m := range moves {
		if err := r.migrate(m); err != nil {
			errs = append(errs, fmt.Errorf("shard: migrating %s from %s to %s: %w", m.name, m.from, m.to, err))
		}
	}
	return errors.Join(errs...)
}

// Rebalance re-runs every migration the current ring implies —
// queues whose route disagrees with their ring owner, e.g. after an
// AddShard whose drain hit a transient error. It is idempotent: with
// nothing pending it does nothing and returns nil.
func (r *Router) Rebalance() error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	moves := r.pendingMovesLocked()
	r.mu.Unlock()
	return r.runMoves(moves)
}

// SplitGroup re-derives a placement group's queues across k sub-arcs:
// each queue is deterministically assigned one sub-arc by hashing its
// name (subgroupIndex), and sub-arc i lives on the i-th distinct ring
// successor of the group's hash, so a hot group's traffic spreads over
// min(k, shards) shards while every individual queue — and its
// receipts and in-flight messages — stays on exactly one shard. Queues
// whose sub-arc lands them elsewhere migrate through the same
// count-preserving drain-and-forward machinery topology changes use.
// k = 1 merges the group back onto its single arc (the hysteresis
// path). Idempotent: re-splitting at the current k re-runs only the
// migrations that previously failed, like Rebalance.
func (r *Router) SplitGroup(group string, k int) error {
	if group == "" || strings.Contains(group, groupSep) {
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	if k < 1 || k > maxSubgroups {
		return fmt.Errorf("%w: %d", ErrBadSplit, k)
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	if k > 1 && r.pinned[group] {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrGroupPinned, group)
	}
	if k <= 1 {
		delete(r.splits, group)
	} else {
		r.splits[group] = k
	}
	moves := r.pendingMovesLocked()
	r.mu.Unlock()
	return r.runMoves(moves)
}

// MergeGroup collapses a split group back onto its single ring arc,
// migrating its queues home. A no-op (and nil) for an unsplit group.
func (r *Router) MergeGroup(group string) error { return r.SplitGroup(group, 1) }

// PinGroup opts a group out of (or back into) hot-group splitting.
// Pinning an already-split group merges it first: a job that needs
// strict co-location needs it NOW, not at the next policy tick.
func (r *Router) PinGroup(group string, pin bool) error {
	if group == "" || strings.Contains(group, groupSep) {
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	if pin {
		r.pinned[group] = true
		delete(r.splits, group)
	} else {
		delete(r.pinned, group)
	}
	moves := r.pendingMovesLocked()
	r.mu.Unlock()
	return r.runMoves(moves)
}

// Regroup assigns a queue to an explicit placement group and migrates
// it onto the group's ring owner through the same drain-and-forward
// machinery topology changes use — the migration story for namespaces
// created before placement groups existed: an operator regroups a
// job's queues one by one and their traffic converges onto one shard.
// An empty group reverts to the name-derived key.
//
// Regroup serializes with Rebalance and topology changes on topoMu
// (and, underneath, on the per-route freeze), so racing a Regroup
// against a concurrent Rebalance of the same queue is safe: whichever
// runs second simply re-evaluates the route and the placement
// converges on the last group set. Neither call errors on the race.
func (r *Router) Regroup(queueName, group string) error {
	if strings.Contains(group, groupSep) {
		// "job-7/tasks" as a group would hash the literal string while
		// sibling queues hash "job-7" — reject instead of silently
		// placing the queue away from the group it was meant to join.
		return fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	r.mu.Lock()
	rt := r.routes[queueName]
	if rt == nil {
		r.mu.Unlock()
		return queue.ErrNoSuchQueue
	}
	rt.mu.Lock()
	if rt.dead {
		rt.mu.Unlock()
		r.mu.Unlock()
		return queue.ErrNoSuchQueue
	}
	rt.group = group
	cur := rt.shard
	rt.mu.Unlock()
	owner, ok := r.ringOwnerLocked(group, queueName)
	r.mu.Unlock()
	if !ok {
		return ErrNoShards
	}
	if owner == cur {
		return nil
	}
	return r.migrate(pendingMove{name: queueName, rt: rt, from: cur, to: owner})
}

// RegroupPrefix assigns every queue whose name starts with prefix to
// the placement group in one topology-serialized sweep, then migrates
// the queues whose new group key lands them on a different ring owner.
// It is the bulk form of Regroup: one topoMu hold covers the whole
// sweep, so no Rebalance or topology change can interleave between two
// of the prefix's queues and observe the group half-applied. Returns
// how many queues matched the prefix; migrations that fail leave their
// queue routed to its old shard (fully usable, converging on the next
// Rebalance), with the errors joined.
//
// The prefix must be non-empty: regrouping the entire namespace is
// almost certainly an operator mistyping, and an explicit per-queue
// Regroup loop is the honest way to spell it.
//
// An empty group reverts matched queues to their name-derived keys.
func (r *Router) RegroupPrefix(prefix, group string) (int, error) {
	if prefix == "" {
		return 0, errors.New("shard: regroup prefix must be non-empty")
	}
	if strings.Contains(group, groupSep) {
		return 0, fmt.Errorf("%w: %q", ErrBadGroup, group)
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	matched := 0
	var moves []pendingMove
	r.mu.Lock()
	for name, rt := range r.routes {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rt.mu.Lock()
		if rt.dead {
			rt.mu.Unlock()
			continue
		}
		rt.group = group
		cur := rt.shard
		rt.mu.Unlock()
		matched++
		owner, ok := r.ringOwnerLocked(group, name)
		if !ok {
			// Unreachable while routes exist (the last owning shard
			// cannot be removed), but don't migrate on a broken ring.
			continue
		}
		if owner != cur {
			moves = append(moves, pendingMove{name: name, rt: rt, from: cur, to: owner})
		}
	}
	r.mu.Unlock()
	sort.Slice(moves, func(i, j int) bool { return moves[i].name < moves[j].name })
	return matched, r.runMoves(moves)
}

// migrate moves one queue: freeze, stream the visible backlog to the
// new owner, switch the route, thaw, and leave a forwarder watching the
// old shard for in-flight messages that expire back into visibility.
// On error the route is left on the old shard and the queue stays
// usable — at worst some already-streamed messages are redelivered from
// the new owner later, within the at-least-once contract.
func (r *Router) migrate(m pendingMove) error {
	r.mu.RLock()
	fromB, toB := r.shards[m.from], r.shards[m.to]
	r.mu.RUnlock()
	if fromB == nil || toB == nil {
		return ErrNoSuchShard
	}

	// Freeze: new operations on the queue block until the thaw. An
	// existing freeze (CreateQueue publishing the route) is waited out
	// first — overwriting its channel would strand its waiters.
	var frozen chan struct{}
	for {
		m.rt.mu.Lock()
		if m.rt.shard != m.from || m.rt.dead {
			// Re-routed or deleted since the move was computed; nothing
			// to do. The dead check matters: streaming a deleted
			// queue's messages would plant a ghost copy on the new
			// owner.
			m.rt.mu.Unlock()
			return nil
		}
		if m.rt.frozen == nil {
			frozen = make(chan struct{})
			m.rt.frozen = frozen
			m.rt.mu.Unlock()
			break
		}
		ch := m.rt.frozen
		m.rt.mu.Unlock()
		<-ch
	}

	// abort thaws with the route unchanged. Batches already streamed to
	// the new owner would otherwise sit there invisibly (the route
	// still points at the old shard, and nothing revisits them until
	// the next topology change) — so a forwarder is left watching the
	// new owner to carry them back to wherever the route points.
	streamed := false
	abort := func() {
		m.rt.mu.Lock()
		spawnBack := streamed && !m.rt.draining[m.to]
		if spawnBack {
			m.rt.draining[m.to] = true
		}
		close(frozen)
		m.rt.frozen = nil
		m.rt.mu.Unlock()
		if spawnBack {
			r.fwd.Add(1)
			go r.forward(m.name, m.rt, m.to, toB)
		}
	}

	if err := toB.CreateQueue(m.name); err != nil && !errors.Is(err, queue.ErrQueueExists) {
		abort()
		return err
	}

	// Stream the visible backlog. Receivers that raced the freeze hold
	// leases on the old shard; those messages are not visible and are
	// handled by their receipts or the forwarder.
	for {
		msgs, err := fromB.ReceiveMessageBatch(m.name, drainVisibility, queue.MaxBatch, 0)
		if errors.Is(err, queue.ErrNoSuchQueue) {
			// Deleted under the freeze (DeleteQueue waits, but the queue
			// may have been gone before the move started).
			break
		}
		if err != nil {
			abort()
			return err
		}
		if len(msgs) == 0 {
			break
		}
		receipts := make([]string, len(msgs))
		for i, msg := range msgs {
			receipts[i] = msg.ReceiptHandle
		}
		// Transfer before delete: a failure between the two redelivers
		// from the old shard instead of losing messages.
		if err := transferBatch(toB, m.name, msgs); err != nil {
			abort()
			return err
		}
		streamed = true
		if _, err := fromB.DeleteMessageBatch(m.name, receipts); err != nil && !errors.Is(err, queue.ErrNoSuchQueue) {
			abort()
			return err
		}
	}

	// Switch the route and thaw; stragglers drain in the background.
	// A forwarder may already be watching m.from (the queue moved off
	// it, back on, and off again before the first forwarder finished);
	// spawn a second one only if there isn't one.
	m.rt.mu.Lock()
	m.rt.shard = m.to
	m.rt.moves++
	alreadyForwarding := m.rt.draining[m.from]
	m.rt.draining[m.from] = true
	close(frozen)
	m.rt.frozen = nil
	m.rt.mu.Unlock()

	if !alreadyForwarding {
		r.fwd.Add(1)
		go r.forward(m.name, m.rt, m.from, fromB)
	}
	return nil
}

// forward watches a queue's old shard after migration. Messages the
// drain could not take — in flight, leased to live consumers — either
// get deleted through their (shard-routed) receipts or expire back to
// visible, in which case they are forwarded to the current owner. When
// the old queue is empty it is deleted; at the lease horizon the
// forwarder gives up and leaves it, so outstanding receipts stay valid.
//
// Idle polls back off exponentially from ForwardInterval to a quarter
// of drainVisibility: every poll is a billed request (a real HTTP round
// trip on a remote shard), and consumers holding long heartbeat-renewed
// leases would otherwise draw a constant poll stream for the whole
// lease.
func (r *Router) forward(name string, rt *route, from string, fromB queue.API) {
	defer r.fwd.Done()
	// migratedBack records why the forwarder exits. When the queue
	// moved back onto `from` and then off again before this exit ran,
	// the new migration saw draining[from] set and refrained from
	// spawning a twin — so instead of dropping the entry (stranding
	// whatever is leased on `from`), hand the watch to a fresh
	// forwarder.
	migratedBack := false
	defer func() {
		rt.mu.Lock()
		if migratedBack && rt.shard != from {
			rt.mu.Unlock()
			r.fwd.Add(1) // before Done (deferred earlier, runs later)
			go r.forward(name, rt, from, fromB)
			return
		}
		delete(rt.draining, from)
		rt.mu.Unlock()
	}()
	deadline := time.Now().Add(leaseHorizon)
	interval := r.cfg.ForwardInterval
	maxInterval := drainVisibility / 4
	if maxInterval < interval {
		maxInterval = interval
	}
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-r.closing:
			return
		}
		// If the queue migrated back onto the shard being watched, the
		// "old" copy IS the live queue: stop without touching it.
		rt.mu.Lock()
		owner := rt.shard
		rt.mu.Unlock()
		if owner == from {
			migratedBack = true
			return
		}
		visible, inflight, err := fromB.ApproximateCount(name)
		if errors.Is(err, queue.ErrNoSuchQueue) {
			return // queue gone — deleted or already cleaned up
		}
		if err != nil {
			// Transient failure (a remote shard hiccup): back off and
			// keep watching — exiting here would strand whatever is
			// still leased on the old shard.
			if interval *= 2; interval > maxInterval {
				interval = maxInterval
			}
			if time.Now().After(deadline) {
				return
			}
			timer.Reset(interval)
			continue
		}
		if visible > 0 {
			r.forwardVisible(name, fromB)
			interval = r.cfg.ForwardInterval // progress: poll eagerly again
			timer.Reset(interval)
			continue // re-check counts before deciding to stop
		}
		if interval *= 2; interval > maxInterval {
			interval = maxInterval
		}
		if inflight == 0 {
			// Delete under topoMu so no migration can land the queue
			// back on this shard between the emptiness check and the
			// delete; both are re-verified once topology is pinned.
			r.topoMu.Lock()
			rt.mu.Lock()
			owner = rt.shard
			rt.mu.Unlock()
			stop := false
			if owner == from {
				stop = true // live again; leave it alone
				migratedBack = true
			} else if v, inf, cerr := fromB.ApproximateCount(name); errors.Is(cerr, queue.ErrNoSuchQueue) {
				stop = true // already gone
			} else if cerr == nil && v == 0 && inf == 0 {
				_ = fromB.DeleteQueue(name)
				stop = true
			}
			// A transient count error falls through: keep watching.
			r.topoMu.Unlock()
			if stop {
				return
			}
			// Refilled while unguarded; keep forwarding eagerly.
			interval = r.cfg.ForwardInterval
			timer.Reset(interval)
			continue
		}
		if time.Now().After(deadline) {
			return
		}
		timer.Reset(interval)
	}
}

// forwardVisible moves one round of expired stragglers from the old
// shard to the queue's current owner (resolved per batch, so chained
// migrations land messages on the newest owner).
func (r *Router) forwardVisible(name string, fromB queue.API) {
	for {
		msgs, err := fromB.ReceiveMessageBatch(name, drainVisibility, queue.MaxBatch, 0)
		if err != nil || len(msgs) == 0 {
			return
		}
		receipts := make([]string, len(msgs))
		for i, msg := range msgs {
			receipts[i] = msg.ReceiptHandle
		}
		_, _, ownerB, err := r.ownerBackend("", name)
		if err != nil {
			return // queue deleted while forwarding
		}
		if err := transferBatch(ownerB, name, msgs); err != nil {
			return
		}
		_, _ = fromB.DeleteMessageBatch(name, receipts)
	}
}

// transferBatch moves one received batch onto dst, preserving each
// message's delivery count through the privileged transfer surface:
// the receive that pulled the batch off the source shard is router
// plumbing, not a consumer delivery, so the count carried over is
// Receives-1. (Only the receive of THIS attempt can be discounted: if
// the transfer fails and the source redelivers, the failed attempt's
// receive stays in the count — at most one budget unit per failed
// attempt, erring toward earlier dead-lettering; see the package doc.)
// When dst cannot take transfers — a foreign queue.API implementation,
// or a remote shard whose admin token is not provisioned — it falls
// back to a public re-send, which keeps the migration safe but
// restarts counts (the pre-transfer behaviour).
func transferBatch(dst queue.API, name string, msgs []queue.Message) error {
	if tr, ok := dst.(queue.Transferrer); ok {
		items := make([]queue.TransferItem, len(msgs))
		for i, msg := range msgs {
			items[i] = queue.TransferItem{Body: msg.Body, Receives: msg.Receives - 1}
		}
		_, err := tr.TransferInBatch(name, items)
		if err == nil || !errors.Is(err, queue.ErrNotPrivileged) {
			return err
		}
	}
	bodies := make([][]byte, len(msgs))
	for i, msg := range msgs {
		bodies[i] = msg.Body
	}
	_, err := dst.SendMessageBatch(name, bodies)
	return err
}
