package planner

// RefMinWork exposes the reference MinWork (reference_test.go) to the tests
// of package planner_test, which build their VDAGs through packages that
// import this one.
var RefMinWork = refMinWork
