package sim

// SetStepping makes the CPU run every stage on every cycle: no
// idle-cycle skip and no issue wake gate. It is the reference the
// event-driven advance is compared against.
func (c *CPU) SetStepping() { c.stepping = true }

// HoldHead un-issues the ROB head and drops it from the issue queue,
// so it can never issue or commit and the pipeline stops making
// progress.
func (c *CPU) HoldHead() {
	h := c.rob.Head()
	h.Issued = false
	kept := c.iq[:0]
	for _, e := range c.iq {
		if e != h {
			kept = append(kept, e)
		}
	}
	c.iq = kept
}
