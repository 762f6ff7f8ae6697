package multicast

// OnData is the DataKind inner handler, for external tests that wrap it.
var OnData = (*Service).onData
