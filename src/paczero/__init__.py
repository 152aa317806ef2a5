"""PAC-private zeroth-order training with exact per-step information accounting."""
