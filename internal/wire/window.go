package wire

import "sync"

// seenCap bounds an idempotency window. Retries follow failures within
// seconds, so a few thousand recent IDs is plenty; older ones age out.
const seenCap = 4096

// Window is a bounded idempotency window: it remembers the last seenCap
// request IDs whose application succeeded, so a re-sent mutation is
// acknowledged without being applied twice. The zero value is ready to
// use; a Window must not be copied after first use.
//
// Each live ID holds exactly one slot of a fixed ring. An ID is pending
// while its first application runs and marked once it succeeds; a failed
// application frees the slot, so the sender's retry is applied rather than
// absorbed. A duplicate that arrives while the ID is still pending waits
// for the outcome instead of acknowledging an application that may yet
// fail. An ID left pending while seenCap newer IDs are claimed ages out
// like any other.
type Window struct {
	mu    sync.Mutex
	cond  sync.Cond
	index map[string]int32
	ring  [seenCap]slot
	next  int32
	gen   uint64
}

// slot is one ring entry. gen identifies the claim that filled it, so an
// application outliving its slot's eviction cannot settle a later claim.
type slot struct {
	id      string
	gen     uint64
	pending bool
}

// Do applies a request carrying id exactly once. If id was already applied
// it returns dup=true without calling apply; otherwise it calls apply and
// returns its error, marking id on success and forgetting it on failure.
// An empty id is never deduplicated: apply always runs.
func (w *Window) Do(id string, apply func() error) (dup bool, err error) {
	if id == "" {
		return false, apply()
	}
	w.mu.Lock()
	if w.index == nil {
		w.index = make(map[string]int32)
		w.cond.L = &w.mu
	}
	for {
		i, ok := w.index[id]
		if !ok {
			break
		}
		if !w.ring[i].pending {
			w.mu.Unlock()
			return true, nil
		}
		w.cond.Wait()
	}
	i, gen := w.claim(id)
	w.mu.Unlock()

	err = apply()

	w.mu.Lock()
	if s := &w.ring[i]; s.gen == gen {
		if err == nil {
			s.pending = false
		} else {
			delete(w.index, id)
			*s = slot{}
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return false, err
}

// claim gives id the next ring slot as pending, evicting the slot's
// previous occupant. Callers hold w.mu.
func (w *Window) claim(id string) (int32, uint64) {
	i := w.next
	w.next = (w.next + 1) % seenCap
	if old := w.ring[i].id; old != "" {
		delete(w.index, old)
	}
	w.gen++
	w.ring[i] = slot{id: id, gen: w.gen, pending: true}
	w.index[id] = i
	return i, w.gen
}
