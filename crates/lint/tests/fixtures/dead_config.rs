// Broken config surface: `orphan_knob` is validated, but no model code
// ever reads it.
pub struct WriteCacheConfig {
    pub capacity_lines: usize,
    pub orphan_knob: u64,
}

pub fn validate(cfg: &WriteCacheConfig) -> bool {
    cfg.orphan_knob > 0 && cfg.capacity_lines > 0
}

pub fn model_step(cfg: &WriteCacheConfig) -> usize {
    cfg.capacity_lines * 2
}
