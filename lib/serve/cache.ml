(* The daemon's response tier: a {!Rtcad_core.Store} counting under
   [serve.cache.*], with the serve defaults of 8 shards and a 32 MiB
   cost budget.  Responses are [response]-stage entries, so one
   [--cache-dir] holds them beside the flow's stage artifacts.  This is
   a module of its own, rather than a constructor in {!Serve}, only
   because perfbench/serve_mix.ml names [Cache.{t,create,stats}]. *)

type t = Rtcad_core.Store.t

type stats = Rtcad_core.Store.stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
  entries : int;
  retained_bytes : int;
  retained_ms : float;
  shards : Rtcad_core.Store.shard_stats list;
}

let create ?(shards = 8) ?(budget = 32 * 1024 * 1024) ?dir () =
  Rtcad_core.Store.create ~namespace:"serve.cache" ~shards ~budget ?dir ()

let stats = Rtcad_core.Store.stats
