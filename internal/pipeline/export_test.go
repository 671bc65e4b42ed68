package pipeline

// NewEnv lets a test drive a task's notebook cell by cell against the
// Env a script run would hand it. cfg must be normalized.
var NewEnv = newEnv
