package memseg

// Test-only views of the off-heap table accounting.
const OffHeapTables = offHeapTables

func MappedBytes() int64 { return mappedBytes.Load() }
