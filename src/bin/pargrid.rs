//! `pargrid` — command-line front end for parallel grid files.
//!
//! ```text
//! pargrid gen hot2d --out hot.pgf                # built-in dataset -> grid file
//! pargrid gen stock3d --csv quotes.csv           # ... or CSV export
//! pargrid build --csv points.csv --out my.pgf    # CSV records -> grid file
//! pargrid stats my.pgf                           # structure summary
//! pargrid query my.pgf --range 0..500,0..500     # range query
//! pargrid pmatch my.pgf --keys 137.5,*,*         # partial-match query
//! pargrid decluster my.pgf --method minimax --disks 16 --out assign.csv
//! pargrid evaluate my.pgf --method hcam --disks 16 --ratio 0.05
//! pargrid evaluate my.pgf --method minimax --disks 16 --clients 8   # + engine throughput
//! pargrid evaluate my.pgf --method minimax --disks 8 --trace out.json --metrics out.prom
//! pargrid evaluate my.pgf --method minimax --disks 16 --replicate --chaos 7 --deadline-us 2000000
//! pargrid serve my.pgf --addr 127.0.0.1:7878 --method minimax --disks 16   # TCP server
//! pargrid serve my.pgf --method dm --disks 4 --wal state/      # durable: WAL + checkpoint
//! pargrid query --addr 127.0.0.1:7878 --range 0..500,0..500    # query over the wire
//! pargrid query --addr 127.0.0.1:7878 --keys 137.5,*           # remote partial match
//! pargrid query --addr 127.0.0.1:7878 --insert 9001,137.5,42.0 # insert over the wire
//! pargrid query --addr 127.0.0.1:7878 --delete 9001,137.5,42.0 # ... and delete again
//! pargrid query --addr 127.0.0.1:7878 --stats                  # Prometheus metrics
//! pargrid query --addr 127.0.0.1:7878 --shutdown               # graceful stop
//! pargrid serve my.pgf --method minimax --disks 8 --standby 2  # + standby workers
//! pargrid rebalance --addr 127.0.0.1:7878 --add-workers 2      # grow the cluster live
//! pargrid rebalance --addr 127.0.0.1:7878 --remove-worker 0    # drain + shrink
//! pargrid rebalance --addr 127.0.0.1:7878 --add-workers 1 --dry-run   # preview the plan
//! pargrid worker --listen 127.0.0.1:7901                        # cluster worker process
//! pargrid serve my.pgf --method minimax --disks 4 \
//!     --workers 127.0.0.1:7901,127.0.0.1:7902 \
//!     --node-id 0 --peer-listen 127.0.0.1:7951 \
//!     --peers 1=127.0.0.1:7952=127.0.0.1:7879                  # replicated coordinator
//! ```
//!
//! `--trace` writes a Chrome `trace_event` JSON of one traced engine run —
//! open it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! `--metrics` writes the run's histograms in Prometheus text format.

use pargrid::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         pargrid gen <uniform2d|hot2d|correl2d|dsmc3d|stock3d|mhd3d> [--seed N] [--out FILE.pgf] [--csv FILE.csv]\n  \
         pargrid build --csv FILE.csv --out FILE.pgf [--capacity N] [--page BYTES]\n  \
         pargrid stats FILE.pgf\n  \
         pargrid query FILE.pgf --range LO..HI,LO..HI[,...] [--count-only]\n  \
         pargrid pmatch FILE.pgf --keys V|*,V|*[,...]\n  \
         pargrid decluster FILE.pgf --method M --disks N [--seed N] [--out FILE.csv]\n  \
         pargrid evaluate FILE.pgf --method M --disks N [--ratio R] [--queries N] [--seed N] [--clients K] [--replicate] [--fail K] [--chaos SEED] [--deadline-us N] [--trace FILE.json] [--metrics FILE.prom]\n  \
         pargrid serve FILE.pgf --method M --disks N [--addr H:P] [--seed N] [--queue N] [--dispatchers K] [--pace-us N] [--replicate] [--standby K] [--wal DIR]\n  \
         pargrid serve FILE.pgf --method M --disks N --workers H:P[,H:P...] [--addr H:P] [--node-id N] [--peer-listen H:P] [--peers ID=PEER=CLIENT[,...]] [--heartbeat-ms N]\n  \
         pargrid worker --listen H:P [--state FILE]\n  \
         pargrid query --addr H:P --range LO..HI[,...] | --keys V|*[,...] | --insert ID,C[,...] | --delete ID,C[,...] | --ping | --stats | --shutdown\n  \
         pargrid rebalance --addr H:P --add-workers K | --remove-worker I [--dry-run]\n\n  \
         serve: each connection answers its requests in order; up to --dispatchers K requests run at once (default 4) and --queue N more may wait (default 64); the rest are shed\n  \
         methods: {}",
        DeclusterMethod::names().join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "build" => cmd_build(rest),
        "stats" => cmd_stats(rest),
        "query" => cmd_query(rest),
        "pmatch" => cmd_pmatch(rest),
        "decluster" => cmd_decluster(rest),
        "evaluate" => cmd_evaluate(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "rebalance" => cmd_rebalance(rest),
        _ => Err("unknown command".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

type CliResult = Result<(), String>;

/// Fetches the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn flag_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Flags that take no value (everything else consumes the next argument).
const BOOLEAN_FLAGS: &[&str] = &[
    "--count-only",
    "--replicate",
    "--ping",
    "--stats",
    "--shutdown",
    "--dry-run",
];

fn positional(args: &[String]) -> Option<&str> {
    // First argument that is neither a flag nor a flag's value.
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOLEAN_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

fn parse_method(name: &str) -> Result<DeclusterMethod, String> {
    DeclusterMethod::parse(name).ok_or_else(|| {
        format!(
            "unknown method: {name} (known: {})",
            DeclusterMethod::names().join(" ")
        )
    })
}

fn load_file(args: &[String]) -> Result<GridFile, String> {
    let path = positional(args).ok_or("missing grid file path")?;
    GridFile::load(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> CliResult {
    let name = positional(args).ok_or("missing dataset name")?;
    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let ds = match name {
        "uniform2d" => pargrid::datagen::uniform2d(seed),
        "hot2d" => pargrid::datagen::hot2d(seed),
        "correl2d" => pargrid::datagen::correl2d(seed),
        "dsmc3d" => pargrid::datagen::dsmc3d(seed),
        "stock3d" => pargrid::datagen::stock3d(seed),
        "mhd3d" => pargrid::datagen::mhd3d(seed),
        other => return Err(format!("unknown dataset: {other}")),
    };
    if let Some(csv) = flag_value(args, "--csv")? {
        let mut out = String::with_capacity(ds.len() * 24);
        for (i, p) in ds.points.iter().enumerate() {
            out.push_str(&i.to_string());
            for c in p.coords() {
                out.push(',');
                out.push_str(&format!("{c}"));
            }
            out.push('\n');
        }
        std::fs::write(csv, out).map_err(|e| e.to_string())?;
        println!("wrote {} records to {csv}", ds.len());
    }
    if let Some(path) = flag_value(args, "--out")? {
        let gf = ds.build_grid_file();
        gf.save(path).map_err(|e| e.to_string())?;
        let st = gf.stats();
        println!(
            "wrote {path}: {} records, {} buckets over {:?} grid",
            st.n_records, st.n_buckets, st.cells_per_dim
        );
    }
    if flag_value(args, "--csv")?.is_none() && flag_value(args, "--out")?.is_none() {
        return Err("gen needs --out and/or --csv".into());
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> CliResult {
    let csv = flag_value(args, "--csv")?.ok_or("build needs --csv")?;
    let out = flag_value(args, "--out")?.ok_or("build needs --out")?;
    let text = std::fs::read_to_string(csv).map_err(|e| format!("{csv}: {e}"))?;
    let mut records = Vec::new();
    let mut dim = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 2 {
            return Err(format!("{csv}:{}: need id plus coordinates", ln + 1));
        }
        let id: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| format!("{csv}:{}: bad id", ln + 1))?;
        let coords: Result<Vec<f64>, String> = fields[1..]
            .iter()
            .map(|f| {
                f.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("{csv}:{}: bad coordinate {f}", ln + 1))
            })
            .collect();
        let coords = coords?;
        if dim == 0 {
            dim = coords.len();
        } else if coords.len() != dim {
            return Err(format!("{csv}:{}: inconsistent dimensionality", ln + 1));
        }
        records.push(Record::new(id, Point::new(&coords)));
    }
    if records.is_empty() {
        return Err("no records in CSV".into());
    }
    // Domain: bounding box of the data, padded so max coordinates stay
    // strictly inside.
    let mut lo = vec![f64::MAX; dim];
    let mut hi = vec![f64::MIN; dim];
    for r in &records {
        for k in 0..dim {
            lo[k] = lo[k].min(r.point.get(k));
            hi[k] = hi[k].max(r.point.get(k));
        }
    }
    for k in 0..dim {
        let pad = (hi[k] - lo[k]).max(1.0) * 1e-6;
        hi[k] += pad;
    }
    let domain = Rect::new(Point::new(&lo), Point::new(&hi));
    let page: usize = flag_parse(args, "--page", 4096)?;
    let capacity: usize = flag_parse(args, "--capacity", 0)?;
    let cfg = if capacity > 0 {
        GridConfig::with_capacity(domain, capacity).with_page_bytes(page)
    } else {
        GridConfig::new(domain, 0).with_page_bytes(page)
    };
    let gf = GridFile::bulk_load(cfg, records);
    gf.save(out).map_err(|e| e.to_string())?;
    let st = gf.stats();
    println!(
        "wrote {out}: {} records, {} buckets ({} merged) over {:?} grid",
        st.n_records, st.n_buckets, st.n_merged_buckets, st.cells_per_dim
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let gf = load_file(args)?;
    let st = gf.stats();
    println!("records        {}", st.n_records);
    println!("dimensionality {}", gf.dim());
    println!(
        "grid           {:?} ({} cells)",
        st.cells_per_dim, st.n_cells
    );
    println!(
        "buckets        {} ({} merged, {} oversize)",
        st.n_buckets, st.n_merged_buckets, st.oversize_buckets
    );
    println!("capacity       {} records/bucket", gf.bucket_capacity());
    println!("occupancy      {:.1}%", st.avg_occupancy * 100.0);
    println!("page size      {} bytes", gf.config().page_bytes);
    Ok(())
}

fn parse_range(spec: &str, dim: usize) -> Result<Rect, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != dim {
        return Err(format!("range has {} dims, file has {dim}", parts.len()));
    }
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for p in parts {
        let (a, b) = p
            .split_once("..")
            .ok_or_else(|| format!("bad interval {p} (want LO..HI)"))?;
        let a: f64 = a.parse().map_err(|_| format!("bad number {a}"))?;
        let b: f64 = b.parse().map_err(|_| format!("bad number {b}"))?;
        if !a.is_finite() || !b.is_finite() || a > b {
            return Err(format!(
                "empty or invalid interval {p} (want LO..HI with LO <= HI)"
            ));
        }
        lo.push(a);
        hi.push(b);
    }
    Ok(Rect::new(Point::new(&lo), Point::new(&hi)))
}

fn parse_keys(spec: &str) -> Result<Vec<Option<f64>>, String> {
    spec.split(',')
        .map(|p| {
            if p == "*" {
                Ok(None)
            } else {
                p.parse::<f64>()
                    .map(Some)
                    .map_err(|_| format!("bad key {p}"))
            }
        })
        .collect()
}

fn print_remote_reply(reply: &pargrid::net::RecordsReply, count_only: bool) {
    println!("records:      {}", reply.records.len());
    if !count_only {
        for r in reply.records.iter().take(20) {
            println!("  {} @ {:?}", r.id, r.point.coords());
        }
        if reply.records.len() > 20 {
            println!("  ... ({} more)", reply.records.len() - 20);
        }
    }
}

fn cmd_query_remote(addr: &str, args: &[String]) -> CliResult {
    let mut client =
        pargrid::net::Client::connect_retry(addr, 5, std::time::Duration::from_millis(100))
            .map_err(|e| format!("{addr}: {e}"))?;
    if has_flag(args, "--ping") {
        let token = 0x1996;
        let echo = client.ping(token).map_err(|e| e.to_string())?;
        if echo != token {
            return Err(format!("pong token mismatch: sent {token}, got {echo}"));
        }
        println!("pong from {addr}");
        return Ok(());
    }
    if has_flag(args, "--stats") {
        print!("{}", client.stats().map_err(|e| e.to_string())?);
        return Ok(());
    }
    if has_flag(args, "--shutdown") {
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("server at {addr} acknowledged shutdown");
        return Ok(());
    }
    if let Some(spec) = flag_value(args, "--range")? {
        // The server knows the file's dimensionality; here the interval
        // count is taken at face value and the server rejects mismatches.
        let dim = spec.split(',').count();
        let rect = parse_range(spec, dim)?;
        let reply = client
            .range_query(rect.lo().coords(), rect.hi().coords())
            .map_err(|e| e.to_string())?;
        print_remote_reply(&reply, has_flag(args, "--count-only"));
        return Ok(());
    }
    if let Some(spec) = flag_value(args, "--keys")? {
        let keys = parse_keys(spec)?;
        let reply = client.partial_match(&keys).map_err(|e| e.to_string())?;
        print_remote_reply(&reply, has_flag(args, "--count-only"));
        return Ok(());
    }
    if let Some(spec) = flag_value(args, "--insert")? {
        let (id, key) = parse_mutation(spec)?;
        let ack = client.insert(id, &key).map_err(|e| e.to_string())?;
        print_mutation_ack("insert", id, &ack);
        return Ok(());
    }
    if let Some(spec) = flag_value(args, "--delete")? {
        let (id, key) = parse_mutation(spec)?;
        let ack = client.delete(id, &key).map_err(|e| e.to_string())?;
        print_mutation_ack("delete", id, &ack);
        return Ok(());
    }
    Err(
        "remote query needs --range, --keys, --insert, --delete, --ping, --stats, or --shutdown"
            .into(),
    )
}

/// Parses `ID,C1,C2[,...]` — a record id followed by its coordinates.
fn parse_mutation(spec: &str) -> Result<(u64, Vec<f64>), String> {
    let mut parts = spec.split(',');
    let id: u64 = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or("mutation needs ID,COORD[,...]")?
        .parse()
        .map_err(|_| format!("bad record id in {spec}"))?;
    let key: Result<Vec<f64>, String> = parts
        .map(|p| {
            p.parse::<f64>()
                .ok()
                .filter(|c| c.is_finite())
                .ok_or_else(|| format!("bad coordinate {p}"))
        })
        .collect();
    let key = key?;
    if key.is_empty() {
        return Err("mutation needs at least one coordinate".into());
    }
    Ok((id, key))
}

fn print_mutation_ack(verb: &str, id: u64, ack: &pargrid::net::MutationAck) {
    println!(
        "{verb} {id}: {} ({} buckets rewritten, {} created, {} freed)",
        if ack.applied { "applied" } else { "no-op" },
        ack.rewritten,
        ack.created,
        ack.freed
    );
}

fn cmd_query(args: &[String]) -> CliResult {
    if let Some(addr) = flag_value(args, "--addr")? {
        return cmd_query_remote(addr, args);
    }
    let gf = load_file(args)?;
    let spec = flag_value(args, "--range")?.ok_or("query needs --range")?;
    let rect = parse_range(spec, gf.dim())?;
    let (buckets, records) = gf.range_query(&rect);
    println!("buckets read: {}", buckets.len());
    println!("records:      {}", records.len());
    if !has_flag(args, "--count-only") {
        for r in records.iter().take(20) {
            println!("  {} @ {:?}", r.id, r.point.coords());
        }
        if records.len() > 20 {
            println!("  ... ({} more)", records.len() - 20);
        }
    }
    Ok(())
}

fn cmd_pmatch(args: &[String]) -> CliResult {
    let gf = load_file(args)?;
    let spec = flag_value(args, "--keys")?.ok_or("pmatch needs --keys")?;
    let keys = parse_keys(spec)?;
    if keys.len() != gf.dim() {
        return Err(format!("{} keys for a {}-d file", keys.len(), gf.dim()));
    }
    let (buckets, records) = gf.partial_match(&keys);
    println!("buckets read: {}", buckets.len());
    println!("records:      {}", records.len());
    Ok(())
}

fn cmd_decluster(args: &[String]) -> CliResult {
    let gf = load_file(args)?;
    let method = parse_method(flag_value(args, "--method")?.ok_or("needs --method")?)?;
    let disks: usize = flag_parse(args, "--disks", 0)?;
    if disks == 0 {
        return Err("needs --disks N".into());
    }
    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let input = DeclusterInput::from_grid_file(&gf);
    let assignment = method.assign(&input, disks, seed);
    println!(
        "{} over {disks} disks: balance degree {:.3}, counts {:?}",
        method.label(),
        assignment.data_balance_degree(),
        assignment.bucket_counts()
    );
    if let Some(out) = flag_value(args, "--out")? {
        let mut csv = String::from("bucket_id,disk\n");
        for b in &input.buckets {
            csv.push_str(&format!("{},{}\n", b.id, assignment.disk_of_id(b.id)));
        }
        std::fs::write(out, csv).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let path = positional(args)
        .ok_or("missing grid file path")?
        .to_string();
    let gf = load_file(args)?;
    let method = parse_method(flag_value(args, "--method")?.ok_or("needs --method")?)?;
    let disks: usize = flag_parse(args, "--disks", 0)?;
    if disks == 0 {
        return Err("needs --disks N".into());
    }
    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let addr = flag_value(args, "--addr")?.unwrap_or("127.0.0.1:7878");
    let queue: usize = flag_parse(args, "--queue", 64)?;
    let dispatchers: usize = flag_parse(args, "--dispatchers", 4)?;
    let pace_us_per_block: u64 = flag_parse(args, "--pace-us", 0)?;
    let replicate = has_flag(args, "--replicate");
    if replicate && disks < 2 {
        return Err("--replicate needs at least 2 disks".into());
    }
    let standby: usize = flag_parse(args, "--standby", 0)?;
    let wal_dir = flag_value(args, "--wal")?.map(|s| s.to_string());

    // Cluster mode: --workers hands the data plane to remote worker
    // processes and runs this node as a replicated coordinator.
    if let Some(workers) = flag_value(args, "--workers")? {
        if replicate || standby > 0 || wal_dir.is_some() {
            return Err(
                "--workers (cluster mode) is incompatible with --replicate/--standby/--wal \
                 (durability is the replicated metadata log)"
                    .into(),
            );
        }
        let workers: Vec<String> = workers.split(',').map(|s| s.trim().to_string()).collect();
        return cmd_serve_cluster(args, &path, gf, method, disks, seed, addr, workers);
    }

    // Durable mode: the --wal directory is authoritative. First run seeds
    // its checkpoint from FILE.pgf; later runs recover checkpoint ⊕ WAL
    // (the .pgf is only a template after that). Declustering is rebuilt
    // from the *recovered* grid so placement matches the live buckets.
    let (gf, wal) = match &wal_dir {
        Some(dir) => {
            let dirp = std::path::Path::new(dir);
            let ckpt = dirp.join(pargrid::gridfile::durable::CHECKPOINT_FILE);
            if !ckpt.exists() {
                std::fs::create_dir_all(dirp).map_err(|e| format!("{dir}: {e}"))?;
                gf.save(&ckpt)
                    .map_err(|e| format!("cannot seed checkpoint in {dir}: {e}"))?;
            }
            let durable = pargrid::gridfile::DurableGridFile::open(dirp, gf.config().clone())
                .map_err(|e| format!("cannot recover {dir}: {e}"))?;
            println!(
                "recovered {dir}: {} records ({} WAL ops replayed)",
                durable.grid().len(),
                durable.recovered_ops()
            );
            let (gf, wal) = durable.into_parts();
            (gf, Some(wal))
        }
        None => (gf, None),
    };

    let input = DeclusterInput::from_grid_file(&gf);
    let gf = std::sync::Arc::new(gf);
    let engine_config = EngineConfig::default().with_standby_workers(standby);
    let engine = if replicate {
        let ra = method.assign_replicated(&input, disks, seed);
        ParallelGridFile::build_replicated(std::sync::Arc::clone(&gf), &ra, engine_config)
    } else {
        let assignment = method.assign(&input, disks, seed);
        ParallelGridFile::build(std::sync::Arc::clone(&gf), &assignment, engine_config)
    };
    if let Some(wal) = wal {
        engine.attach_wal(wal);
    }
    let engine = std::sync::Arc::new(engine);
    let server = pargrid::net::Server::start(
        std::sync::Arc::clone(&engine),
        addr,
        pargrid::net::ServerConfig {
            queue_capacity: queue,
            dispatchers,
            pace_us_per_block,
            // The CLI server is meant to be driven by `pargrid query
            // --shutdown` and `pargrid rebalance` (the CI smoke jobs do
            // exactly that).
            allow_remote_shutdown: true,
            allow_remote_rebalance: true,
            ..pargrid::net::ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "serving {path} ({} over {disks} disks{}{}) — {dispatchers} requests at once, {queue} may wait",
        method.label(),
        if replicate { ", replicated" } else { "" },
        if standby > 0 {
            format!(", {standby} standby")
        } else {
            String::new()
        },
    );
    println!("listening on {}", server.local_addr());
    println!(
        "stop with: pargrid query --addr {} --shutdown",
        server.local_addr()
    );
    // Blocks until a wire Shutdown arrives, then drains and joins
    // everything; the final metrics document goes to stdout so operators
    // (and CI) see the run's counters.
    let doc = server.join();
    if wal_dir.is_some() {
        // Fold the WAL into a fresh checkpoint so the next start replays
        // nothing. A failure here is not fatal — the WAL still holds every
        // acknowledged mutation and recovery replays it.
        match engine.checkpoint() {
            Ok(true) => println!("checkpointed {} records", engine.len()),
            Ok(false) => {}
            Err(e) => eprintln!("warning: final checkpoint failed: {e}"),
        }
    }
    println!("server stopped; final metrics:");
    print!("{doc}");
    Ok(())
}

/// `serve --workers ...`: run this node as a replicated cluster
/// coordinator over remote worker processes. Blocks until killed; the CI
/// smoke job stops it with a signal, exactly like a deployment would.
#[allow(clippy::too_many_arguments)]
fn cmd_serve_cluster(
    args: &[String],
    path: &str,
    gf: GridFile,
    method: DeclusterMethod,
    disks: usize,
    seed: u64,
    addr: &str,
    workers: Vec<String>,
) -> CliResult {
    use pargrid::cluster::{Coordinator, CoordinatorConfig, PeerSpec};

    let node_id: u32 = flag_parse(args, "--node-id", 0)?;
    let peer_listen = flag_value(args, "--peer-listen")?
        .map(|s| s.to_string())
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mut cfg = CoordinatorConfig::new(node_id, addr.to_string(), peer_listen);
    cfg.workers = workers;
    cfg.seed = seed ^ u64::from(node_id);
    cfg.heartbeat_ms = flag_parse(args, "--heartbeat-ms", cfg.heartbeat_ms)?;
    if let Some(peers) = flag_value(args, "--peers")? {
        for entry in peers.split(',') {
            // ID=PEERADDR=CLIENTADDR ('=' because addresses contain ':').
            let parts: Vec<&str> = entry.trim().split('=').collect();
            let [id, peer_addr, client_addr] = parts[..] else {
                return Err(format!("bad --peers entry {entry:?}; want ID=PEER=CLIENT"));
            };
            cfg.peers.push(PeerSpec {
                id: id.parse().map_err(|_| format!("bad peer id {id:?}"))?,
                peer_addr: peer_addr.to_string(),
                client_addr: client_addr.to_string(),
            });
        }
    }
    let n_peers = cfg.peers.len();
    let n_workers = cfg.workers.len();
    let builder: pargrid::cluster::coordinator::EngineBuilder = Box::new(move |gf, backend| {
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment = method.assign(&input, disks, seed);
        let cfg = EngineConfig::default().with_backend(backend);
        std::sync::Arc::new(ParallelGridFile::build(gf, &assignment, cfg))
    });
    let coord = Coordinator::start(cfg, gf, builder)
        .map_err(|e| format!("cannot start coordinator: {e}"))?;
    println!(
        "coordinator {node_id} for {path} ({} over {disks} slots, {n_workers} workers, \
         {n_peers} standby peers)",
        method.label(),
    );
    println!("clients: {addr} (thin redirect while following)");
    println!("stop with: kill {}", std::process::id());
    let mut was_leader = coord.is_leader();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let leading = coord.is_leader();
        if leading != was_leader {
            was_leader = leading;
            if leading {
                println!(
                    "leading term {} (failovers here: {})",
                    coord.term(),
                    coord.failovers()
                );
            } else {
                println!("following (term {})", coord.term());
            }
        }
    }
}

/// `pargrid worker`: one cluster worker process. Holds declustered blocks
/// uploaded by the leading coordinator and executes its dispatches.
fn cmd_worker(args: &[String]) -> CliResult {
    use pargrid::cluster::{WorkerConfig, WorkerServer};

    let listen = flag_value(args, "--listen")?.unwrap_or("127.0.0.1:7901");
    let state_path = flag_value(args, "--state")?.map(std::path::PathBuf::from);
    let durable = state_path.is_some();
    let cfg = WorkerConfig {
        state_path,
        ..WorkerConfig::default()
    };
    let server =
        WorkerServer::start(listen, cfg).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    println!(
        "worker on {} ({} voter state)",
        server.local_addr(),
        if durable { "durable" } else { "in-memory" }
    );
    println!("stop with: kill {}", std::process::id());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_rebalance(args: &[String]) -> CliResult {
    let addr = flag_value(args, "--addr")?.ok_or("rebalance needs --addr")?;
    let add: Option<u32> = match flag_value(args, "--add-workers")? {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --add-workers {v}"))?),
        None => None,
    };
    let remove: Option<u32> = match flag_value(args, "--remove-worker")? {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --remove-worker {v}"))?),
        None => None,
    };
    let cmd = match (add, remove) {
        (Some(k), None) => pargrid::net::RebalanceCmd::AddWorkers(k),
        (None, Some(w)) => pargrid::net::RebalanceCmd::RemoveWorker(w),
        _ => {
            return Err(
                "rebalance needs exactly one of --add-workers K or --remove-worker I".into(),
            )
        }
    };
    let dry_run = has_flag(args, "--dry-run");
    let mut client =
        pargrid::net::Client::connect_retry(addr, 5, std::time::Duration::from_millis(100))
            .map_err(|e| format!("{addr}: {e}"))?;
    let rep = client.rebalance(cmd, dry_run).map_err(|e| e.to_string())?;
    println!(
        "rebalance {}: {} moves ({} bytes), {} active workers",
        if rep.applied { "applied" } else { "dry run" },
        rep.moves,
        rep.moved_bytes,
        rep.active_workers
    );
    println!(
        "movement        {} incremental vs {} full re-decluster ({:.1}% of full)",
        rep.moves,
        rep.full_moves,
        if rep.full_moves > 0 {
            100.0 * rep.moves as f64 / rep.full_moves as f64
        } else {
            0.0
        }
    );
    println!(
        "objective       {:.4} repaired vs {:.4} full re-decluster (lower is better)",
        rep.predicted_objective, rep.baseline_objective
    );
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> CliResult {
    let gf = load_file(args)?;
    let method = parse_method(flag_value(args, "--method")?.ok_or("needs --method")?)?;
    let disks: usize = flag_parse(args, "--disks", 0)?;
    if disks == 0 {
        return Err("needs --disks N".into());
    }
    let ratio: f64 = flag_parse(args, "--ratio", 0.05)?;
    let queries: usize = flag_parse(args, "--queries", 1000)?;
    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let clients: usize = flag_parse(args, "--clients", 1)?;
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let replicate = has_flag(args, "--replicate");
    let fail: usize = flag_parse(args, "--fail", 0)?;
    let chaos: Option<u64> = match flag_value(args, "--chaos")? {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --chaos seed {v}"))?),
        None => None,
    };
    let deadline_us: Option<u64> = match flag_value(args, "--deadline-us")? {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --deadline-us {v}"))?),
        None => None,
    };
    if replicate && disks < 2 {
        return Err("--replicate needs at least 2 disks".into());
    }
    if fail >= disks {
        return Err("--fail must leave at least one live worker".into());
    }
    let input = DeclusterInput::from_grid_file(&gf);
    let assignment = method.assign(&input, disks, seed);
    let workload = QueryWorkload::square(&gf.config().domain, ratio, queries, seed);
    let stats = pargrid::sim::evaluate(&gf, &assignment, &workload);
    println!("method          {}", method.label());
    println!("disks           {disks}");
    println!("queries         {queries} (ratio {ratio})");
    println!("mean response   {:.3} buckets", stats.mean_response);
    println!("optimal         {:.3}", stats.mean_optimal);
    println!("mean buckets    {:.2} per query", stats.mean_buckets);
    println!(
        "tail response   p95 {} / p99 {} buckets",
        stats.p95_response, stats.p99_response
    );
    println!("balance degree  {:.3}", stats.balance_degree);

    let gf = std::sync::Arc::new(gf);
    if clients > 1 {
        // Run the same workload through the parallel engine as `clients`
        // concurrent front-end streams: the submission order interleaves one
        // query per client, and the admission window equals the client count.
        let streams = workload.split_round_robin(clients);
        let arrival = QueryWorkload::interleave(&streams);
        // Fresh engine per run so both start with cold caches.
        let baseline = ParallelGridFile::build(
            std::sync::Arc::clone(&gf),
            &assignment,
            EngineConfig::default(),
        );
        let (_, serial) = baseline.run_workload_concurrent(&arrival, 1);
        let engine = ParallelGridFile::build(
            std::sync::Arc::clone(&gf),
            &assignment,
            EngineConfig::default(),
        );
        let (_, concurrent) = engine.run_workload_concurrent(&arrival, clients);
        println!("clients         {clients}");
        println!(
            "serial          {:.2} queries/s (makespan {:.3} s)",
            serial.queries_per_second(),
            serial.makespan_seconds()
        );
        println!(
            "concurrent      {:.2} queries/s (makespan {:.3} s)",
            concurrent.queries_per_second(),
            concurrent.makespan_seconds()
        );
        println!(
            "speedup         {:.2}x",
            if serial.queries_per_second() > 0.0 {
                concurrent.queries_per_second() / serial.queries_per_second()
            } else {
                0.0
            }
        );
        println!(
            "utilization     {:.1}% mean over {} workers",
            concurrent.mean_utilization() * 100.0,
            disks
        );
        println!("mean batch      {:.2} requests", concurrent.mean_batch());
    }

    if replicate || fail > 0 || chaos.is_some() || deadline_us.is_some() {
        // Degraded-mode / hostile-environment run: chained-declustered
        // replication (--replicate), injected fail-stop worker faults
        // (--fail K, spaced around the chain so replicated layouts survive
        // them), a seeded chaos schedule over every fault family (--chaos
        // SEED), and a per-query real-time deadline (--deadline-us N).
        let mut faults = match chaos {
            // The soak's default intensity: 24 events over the run.
            Some(cs) => FaultPlan::chaos(cs, disks, queries as u64, 24),
            None => FaultPlan::none(),
        };
        for i in 0..fail {
            faults = faults.with_kill(i * disks / fail.max(1));
        }
        let mut config = EngineConfig::default().resilience(|r| {
            r.with_fail_timeout_ms(if chaos.is_some() { 15 } else { 25 })
                .with_faults(faults)
        });
        if let Some(d) = deadline_us {
            config = config.latency(|l| l.with_deadline_us(d));
        }
        if chaos.is_some() {
            // Chaos schedules include straggler disks: arm hedged reads.
            config = config.latency(|l| l.with_hedging(3.0));
        }
        let engine = if replicate {
            let ra = method.assign_replicated(&input, disks, seed);
            ParallelGridFile::build_replicated(std::sync::Arc::clone(&gf), &ra, config)
        } else {
            ParallelGridFile::build(std::sync::Arc::clone(&gf), &assignment, config)
        };
        let (outcomes, tp) = engine.run_workload_concurrent(&workload, clients);
        let mean_ms = outcomes.iter().map(|o| o.elapsed_us).sum::<u64>() as f64
            / outcomes.len().max(1) as f64
            / 1e3;
        let incomplete = outcomes.iter().filter(|o| o.incomplete).count();
        let st = engine.stats();
        println!(
            "layout          {}",
            if replicate {
                "replicated (chained declustering)"
            } else {
                "unreplicated"
            }
        );
        println!(
            "failures        {fail} injected ({} of {disks} workers live)",
            st.live_workers()
        );
        println!(
            "degraded        {mean_ms:.3} ms mean response, {:.2} queries/s",
            tp.queries_per_second()
        );
        println!(
            "failover        {} retries, {} blocks served by replicas",
            tp.retries, tp.failed_over_blocks
        );
        if let Some(cs) = chaos {
            println!("chaos           seed {cs} (24 fault events over every family)");
        }
        if let Some(d) = deadline_us {
            println!(
                "deadline        {d} us per query, {} expired",
                st.deadline_expired
            );
        }
        if chaos.is_some() {
            println!(
                "resilience      {} retransmits, {} hedged reads, {} blocks scrubbed",
                st.retransmits, st.hedges, st.scrubbed
            );
        }
        println!("incomplete      {incomplete} of {} queries", tp.queries);
    }

    let trace_out = flag_value(args, "--trace")?;
    let metrics_out = flag_value(args, "--metrics")?;
    if trace_out.is_some() || metrics_out.is_some() {
        // One traced engine pass over the workload; every span is stamped
        // in the recorder's virtual clock, so exports are deterministic.
        let recorder = std::sync::Arc::new(Recorder::new(disks));
        let engine = ParallelGridFile::build(
            std::sync::Arc::clone(&gf),
            &assignment,
            EngineConfig::default().obs(|o| o.with_recorder(std::sync::Arc::clone(&recorder))),
        );
        let _ = engine.run_workload_concurrent(&workload, clients.max(4));
        let engine_stats = engine.stats();
        drop(engine); // joins the workers: the snapshot below is complete
        if let Some(path) = trace_out {
            let snap = recorder.snapshot();
            std::fs::write(path, pargrid::obs::to_chrome_trace(&snap))
                .map_err(|e| format!("{path}: {e}"))?;
            println!(
                "trace           {path} ({} events; open in Perfetto or chrome://tracing)",
                snap.len()
            );
        }
        if let Some(path) = metrics_out {
            let mut pw = pargrid::obs::PromWriter::new();
            pw.counter(
                pargrid::obs::names::ENGINE_QUERIES_TOTAL,
                "Queries served by the engine.",
                engine_stats.queries,
            );
            pw.gauge(
                pargrid::obs::names::ENGINE_WORKERS_ALIVE,
                "Workers alive at end of run.",
                engine_stats.live_workers() as f64,
            );
            pw.histogram(
                pargrid::obs::names::ENGINE_QUERY_US,
                "End-to-end query latency (virtual microseconds).",
                &recorder.query_us.snapshot(),
            );
            pw.histogram(
                "pargrid_comm_us",
                "Per-query communication time (virtual microseconds).",
                &recorder.comm_us.snapshot(),
            );
            pw.histogram(
                "pargrid_batch_wall_us",
                "Worker batch wall service time (virtual microseconds).",
                &recorder.batch_wall_us.snapshot(),
            );
            pw.histogram(
                "pargrid_response_blocks",
                "Per-query response time (buckets on the busiest disk).",
                &recorder.response_blocks.snapshot(),
            );
            let doc = pw.finish();
            pargrid::obs::validate_prometheus(&doc)
                .map_err(|e| format!("internal: invalid metrics export: {e}"))?;
            std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
            println!("metrics         {path}");
        }
    }
    Ok(())
}
