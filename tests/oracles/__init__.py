"""Reference implementations the kernel is tested against; never imported by ``src/``."""
