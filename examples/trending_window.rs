//! Sliding-window link prediction: reacting to drift.
//!
//! A long-running stream changes regime mid-flight (a community dissolves
//! and a new one forms). A whole-stream sketch keeps recommending stale
//! partners; the windowed store forgets them and tracks the new regime.
//!
//! ```sh
//! cargo run --release --example trending_window
//! ```

use streamlink::prelude::*;
use streamlink::variants::WindowedStore;

fn main() {
    let config = SketchConfig::with_slots(128).seed(4);
    let mut whole = SketchStore::new(config);
    // Window: 4 epochs x 500 edges = last ~2000 edges.
    let mut windowed = WindowedStore::new(config, 500, 4);

    let (alice, bob, carol) = (VertexId(1), VertexId(2), VertexId(3));

    // Regime 1 (3000 edges): alice and bob co-occur in community A.
    let feed = |store: &mut SketchStore, win: &mut WindowedStore, u: VertexId, v: VertexId| {
        store.insert_edge(u, v);
        win.insert_edge(u, v);
    };
    for i in 0..1500u64 {
        let w = VertexId(100 + i % 40);
        feed(&mut whole, &mut windowed, alice, w);
        feed(&mut whole, &mut windowed, bob, w);
    }
    println!("after regime 1 (alice ~ bob in community A):");
    report(&whole, &windowed, alice, bob, carol);

    // Regime 2 (3000 edges): alice migrates to community B with carol;
    // bob goes quiet.
    for i in 0..1500u64 {
        let w = VertexId(900 + i % 40);
        feed(&mut whole, &mut windowed, alice, w);
        feed(&mut whole, &mut windowed, carol, w);
    }
    println!("\nafter regime 2 (alice migrated to community B with carol):");
    report(&whole, &windowed, alice, bob, carol);

    println!(
        "\nthe whole-stream sketch still ranks the stale partner (bob) comparable to \
         the current one (carol); the window has forgotten regime 1 entirely."
    );
}

fn report(
    whole: &SketchStore,
    windowed: &WindowedStore,
    alice: VertexId,
    bob: VertexId,
    carol: VertexId,
) {
    let f = |x: Option<f64>| x.map_or("unseen".to_string(), |v| format!("{v:.3}"));
    println!(
        "  whole stream : J(alice, bob) = {:>6}   J(alice, carol) = {:>6}",
        f(whole.jaccard(alice, bob)),
        f(whole.jaccard(alice, carol)),
    );
    println!(
        "  last-2k window: J(alice, bob) = {:>6}   J(alice, carol) = {:>6}",
        f(windowed.jaccard(alice, bob)),
        f(windowed.jaccard(alice, carol)),
    );
}
