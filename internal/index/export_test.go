package index

// Internals the external test package holds the sharded tier to.
var (
	TopKReference = topKReference
	KeyReachOf    = keyReachOf
)
