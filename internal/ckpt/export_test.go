package ckpt

// PendingRestores reports how many saved variables of an armed restore have
// not been re-registered yet; a fully resumed program leaves none.
func PendingRestores(v *VDS) int { return len(v.restore) }
