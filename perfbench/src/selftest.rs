//! The checker's self-test: real replies from a small server must pass, and
//! deliberately wrong ones must each be counted as failed.

use crate::oracle::{self, parse_answer, Acc, Checker, DbKey, Expect, Sent, Table};
use crate::spec::{Gen, RankSpec};
use qjoin_core::quantile::target_rank;
use qjoin_engine::cli::CliSession;
use qjoin_server::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::Arc;

const GEN: Gen = Gen::Path3 {
    rows: 120,
    domain: 12,
    weights: 1_000_000,
    skew: 0.2,
};
const RANK: RankSpec = RankSpec { wire: "max:*" };
/// The approximate-only ranking of plan `s`, answered with `eps=`.
const SUM: RankSpec = RankSpec { wire: "sum:*" };
const EPS: f64 = 0.02;
const SEEDS: [u64; 2] = [11, 12];

#[allow(clippy::too_many_arguments)]
fn sent(
    plan: &str,
    rank: RankSpec,
    generation: u64,
    variant: usize,
    phi: f64,
    acc: Acc,
    cached: bool,
    reply: &str,
) -> Sent {
    Sent {
        epoch: 0,
        plan: plan.to_string(),
        db: DbKey::Replaced(variant),
        generation,
        rank,
        phis: vec![phi],
        expect: Expect::Answers { acc, cached },
        reply: Ok(vec![reply.to_string()]),
    }
}

/// A reply on plan `p` (MAX).
fn on_p(generation: u64, phi: f64, acc: Acc, cached: bool, reply: &str) -> Sent {
    let variant = (generation - 1) as usize;
    sent("p", RANK, generation, variant, phi, acc, cached, reply)
}

/// `reply` with its weight replaced by `weight`.
fn with_weight(reply: &str, weight: &str) -> Result<String, String> {
    let old = parse_answer(reply)?.weight;
    Ok(reply.replace(&format!("weight={old} "), &format!("weight={weight} ")))
}

/// Runs the self-test, printing one line per case. True when every genuine
/// reply passed and every injected fault was caught by the check meant for it.
pub fn run() -> Result<bool, String> {
    let session = Arc::new(CliSession::new());
    let server =
        Server::bind("127.0.0.1:0", session, ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut ask = |line: String| -> Result<String, String> {
        client
            .send(&line)
            .map(|lines| lines.join("\n"))
            .map_err(|e| e.to_string())
    };
    let phi = 0.5;
    let sampled = Acc::Sampled {
        eps: 0.1,
        delta: 1e-9,
        seed: 7,
    };
    let approx = Acc::Approx { eps: EPS };
    ask(format!("open r {}", GEN.wire_args(SEEDS[0])))?;
    ask(format!("register p r ranking={}", RANK.wire))?;
    ask(format!("register s r ranking={}", SUM.wire))?;
    let cold1 = ask(format!("quantile p {phi}"))?;
    let hit1 = ask(format!("quantile p {phi}"))?;
    let sampled1 = ask(format!("quantile p {phi}{}", sampled.wire()))?;
    let approx1 = ask(format!("quantile s {phi}{}", approx.wire()))?;
    ask(format!("replace r {}", GEN.wire_args(SEEDS[1])))?;
    let cold2 = ask(format!("quantile p {phi}"))?;
    let hit2 = ask(format!("quantile p {phi}"))?;
    client.shutdown().map_err(|e| e.to_string())?;
    join.join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;

    // Per generation: the MAX table, then the SUM table.
    let tables: Vec<Vec<Table>> = SEEDS
        .iter()
        .map(|&s| oracle::tables(&GEN.generate(s), &[RANK, SUM]))
        .collect::<Result<_, _>>()?;
    let lookup = |db: DbKey, rank: RankSpec| {
        let v = match db {
            DbKey::Replaced(v) => v,
            DbKey::Main => 0,
        };
        &tables[v][usize::from(rank == SUM)]
    };
    let i = oracle::approx_iterations(&GEN.generate(SEEDS[0]), SUM, EPS, &[phi])?[0];
    let iterations = HashMap::from([(
        (DbKey::Replaced(0), SUM.wire, EPS.to_bits(), phi.to_bits()),
        i,
    )]);
    let mut checker = Checker::new(&lookup, &iterations);

    // The genuine replies, in the order they were received.
    let genuine = [
        (
            "cold answer, generation 1",
            on_p(1, phi, Acc::Exact, false, &cold1),
        ),
        (
            "cache hit, generation 1",
            on_p(1, phi, Acc::Exact, true, &hit1),
        ),
        (
            "sampled answer, generation 1",
            on_p(1, phi, sampled, false, &sampled1),
        ),
        (
            "eps= answer, generation 1",
            sent("s", SUM, 1, 0, phi, approx, false, &approx1),
        ),
        (
            "cold answer, generation 2",
            on_p(2, phi, Acc::Exact, false, &cold2),
        ),
        (
            "cache hit, generation 2",
            on_p(2, phi, Acc::Exact, true, &hit2),
        ),
    ];
    let mut ok = true;
    for (what, s) in &genuine {
        let result = checker.check(s);
        println!("genuine  {what:<44} {}", verdict(&result));
        ok &= result.is_ok();
    }

    // Deliberately wrong replies, each derived from a genuine one, with the
    // words of the check that must reject it.
    let t1 = &tables[0][0];
    let n = t1.total();
    let t = target_rank(phi, n);
    // The nearest rank above t whose weight differs (ties share a weight).
    let off = (t + 1..n)
        .find(|&r| t1.at(r) != t1.at(t))
        .ok_or("no distinct weight above the target")?;
    let one_off = with_weight(&cold1, &t1.at(off).to_string())?;
    let rank_off = cold1.replace(&format!("rank={t}/"), &format!("rank={}/", t + 1));
    let wrong_total = cold1.replace(&format!("/{n} "), &format!("/{} ", n + 1));
    // A cache hit in generation 2 that repeats a generation-1 weight. Its rank
    // and |Q(D)| are generation 2's, so only the comparison with the cold
    // reply of the same generation can catch it.
    let w2 = parse_answer(&cold2)?.weight;
    let stale_weight = std::iter::once(t1.at(t))
        .chain((0..t1.total()).map(|r| t1.at(r)))
        .map(|w| w.to_string())
        .find(|w| *w != w2)
        .ok_or("no generation-1 weight differs from generation 2's")?;
    let stale = format!("{} (cached)", with_weight(&cold2, &stale_weight)?);
    let far_sampled = with_weight(&sampled1, &t1.at(0).to_string())?;
    // An `eps=` answer far from its target that claims a million iterations:
    // were I read from the reply, its bound would cover every rank.
    let claimed = parse_answer(&approx1)?.iterations;
    let far_approx = with_weight(&approx1, &tables[0][1].at(0).to_string())?
        .replace(&format!("iterations={claimed}"), "iterations=1000000");
    let injected = [
        (
            format!("weight {} ranks off", off - t),
            "but oracle has",
            on_p(1, phi, Acc::Exact, false, &one_off),
        ),
        (
            "target rank one off".to_string(),
            "target rank",
            on_p(1, phi, Acc::Exact, false, &rank_off),
        ),
        (
            "wrong |Q(D)|".to_string(),
            "but oracle counts",
            on_p(1, phi, Acc::Exact, false, &wrong_total),
        ),
        (
            "cache hit with a stale generation's weight".to_string(),
            "differs from cold",
            on_p(2, phi, Acc::Exact, true, &stale),
        ),
        (
            "sampled answer outside ε·|Q(D)|".to_string(),
            "ranks from target",
            on_p(1, phi, sampled, false, &far_sampled),
        ),
        (
            "eps= answer outside its bound, I misreported".to_string(),
            "ranks from target",
            sent("s", SUM, 1, 0, phi, approx, false, &far_approx),
        ),
    ];
    let mut caught = 0;
    for (what, why, s) in &injected {
        let result = checker.check(s);
        println!("injected {what:<44} {}", verdict(&result));
        match &result {
            Err(e) if e.contains(why) => caught += 1,
            _ => ok = false,
        }
    }
    let attempted = genuine.len() + injected.len();
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {caught}, \"injected\": {}}}",
        injected.len()
    );
    Ok(ok)
}

fn verdict(result: &Result<(), String>) -> String {
    match result {
        Ok(()) => "passed".to_string(),
        Err(why) => format!("failed: {why}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_injected_fault_is_caught() {
        assert!(super::run().unwrap());
    }
}
