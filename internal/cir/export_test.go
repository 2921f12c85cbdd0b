package cir

// SetEpoch sets the overlay's frame epoch, so a test can reach the
// uint32 wrap without running four billion frames.
func (o *Overlay) SetEpoch(epoch uint32) { o.epoch = epoch }

// Range returns the pending word range [lo, hi]; lo > hi when it is
// empty.
func (o *Overlay) Range() (lo, hi int) { return o.lo, o.hi }

// Overlay returns the event evaluator's overlay.
func (e *EventEval) Overlay() *Overlay { return &e.ov }
