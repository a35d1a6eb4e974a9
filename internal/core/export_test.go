package core

// Tasks returns the number of tasks observed in a group.
func (e *HistoryEstimator) Tasks(group int) int {
	if g := e.groups[group]; g != nil {
		return g.tasks
	}
	return 0
}
