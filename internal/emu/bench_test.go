package emu

import (
	"testing"

	"multiscalar/internal/ir"
)

var memorySink uint64

// BenchmarkMemory runs one small program's memory traffic per iteration on
// a reused memory: 2048 data words, four pages, each stored, loaded and
// copied to a 256-word stack frame below ir.StackBase that is then read
// back; then the end of run's Checksum and the next run's Reset.
func BenchmarkMemory(b *testing.B) {
	var m Memory
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sum uint64
		for k := uint64(0); k < 2048; k++ {
			data, stack := ir.DataBase+k*ir.WordBytes, ir.StackBase-(1+k%256)*ir.WordBytes
			m.Store(data, k+1)
			m.Store(stack, m.Load(data))
			sum += m.Load(stack)
		}
		memorySink = sum + m.Checksum()
		m.Reset()
	}
}
