package core

// Builder internals the external differential test (label_diff_test.go)
// shares with its reference: the edge key the append-only label path hashed
// on, and the chunk size of the path location table a far-reaching
// dependence has to cross.
const PathChunk = pathChunk

var PackEdgeKey = packEdgeKey
