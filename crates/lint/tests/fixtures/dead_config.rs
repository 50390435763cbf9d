// Broken config surface: `orphan_knob` is written by the builder and
// validated, but no model code ever reads it.
pub struct WriteCacheConfig {
    pub capacity_lines: usize,
    pub orphan_knob: u64,
}

pub struct WriteCacheBuilder {
    capacity_lines: usize,
    orphan_knob: u64,
}

impl WriteCacheBuilder {
    pub fn build(&self) -> WriteCacheConfig {
        WriteCacheConfig {
            capacity_lines: self.capacity_lines,
            orphan_knob: self.orphan_knob,
        }
    }
}

pub fn validate(cfg: &WriteCacheConfig) -> bool {
    cfg.orphan_knob > 0 && cfg.capacity_lines > 0
}

pub fn model_step(cfg: &WriteCacheConfig) -> usize {
    cfg.capacity_lines * 2
}
