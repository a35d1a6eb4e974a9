package storage

// InFlight returns the number of checkpoint operations outstanding.
func (n *NFS) InFlight() int { return n.inFlight }

// InFlight returns the number of checkpoint operations outstanding,
// summed over the servers.
func (d *DMNFS) InFlight() int {
	total := 0
	for _, k := range d.perServer {
		total += k
	}
	return total
}
