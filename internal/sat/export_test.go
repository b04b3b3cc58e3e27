package sat

// SolveGroupTrace exports solveGroupTrace to the external tests.
var SolveGroupTrace = solveGroupTrace
