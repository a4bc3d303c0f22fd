//~ path: crates/core/src/nnc.rs
fn snapshot_of(groups: Vec<LevelGroups>) -> LevelSnapshot {
    LevelSnapshot { groups }
}

fn bounds_of(query: &PreparedQuery, level: &LevelGroups) -> Vec<BoundPair> {
    crate::cache::build_bounds_whole(query, level)
}

fn distribution_of(object: ObjectRef, query: &UncertainObject) -> DistanceDistribution {
    DistanceDistribution::between_ref(object, query)
}

fn through_the_cache(s: &LevelSnapshot) -> usize {
    s.height()
}

#[cfg(test)]
mod tests {
    fn fixtures_may_build_directly() {
        let _s = LevelSnapshot { groups: Vec::new() };
    }
}

//~ expect: no-warm-bypass @ 3
//~ expect: no-warm-bypass @ 7
//~ expect: no-warm-bypass @ 11
