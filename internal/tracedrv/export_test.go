package tracedrv

// HeldBuffers counts the buffers d holds, for the tests outside the
// package.
func HeldBuffers(d *Driver) int {
	n := 0
	for _, b := range d.buffers {
		if b != nil {
			n++
		}
	}
	return n
}
