// Fixture: registered names pass; an annotated experimental one passes too.

pub fn configured_threads() -> Option<String> {
    std::env::var("HQNN_THREADS").ok()
}

pub fn alloc_counting_enabled() -> bool {
    std::env::var("HQNN_ALLOC").is_ok()
}

pub fn configured_health_action() -> Option<String> {
    std::env::var("HQNN_HEALTH").ok()
}

pub fn experimental_flag() -> bool {
    // lint:allow(env-registry): prototype flag, registered before release
    std::env::var("HQNN_EXPERIMENTAL_X").is_ok()
}
