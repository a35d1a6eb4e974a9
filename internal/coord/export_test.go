package coord

import "time"

// SetClock replaces the ledger's time source; fault-injection tests use
// it to expire leases deterministically. Must be called before the
// ledger is shared.
func (l *Ledger) SetClock(now func() time.Time) { l.now = now }
