package exec

// Exposed to the tests of package exec_test, which draw their VDAGs through
// packages that import this one: the by-name conflict relation the DAG is
// held to (dag_test.go), and a node's predecessors and level.
var Conflicts = conflicts

func (d *DAG) Preds(i int) []int32 { return d.preds(i) }

func (d *DAG) Level(i int) int { return d.level[i] }
