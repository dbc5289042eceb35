module Rng = Relpipe_util.Rng
module Pool = Relpipe_pool.Pool
module Obs = Relpipe_obs.Obs
module Clock = Relpipe_obs.Clock

type config = {
  seed : int;
  count : int;
  oracles : Oracle.t list;
  max_stages : int;
  max_procs : int;
  workers : int;
  perturb : float;
  out_dir : string option;
  obs : Obs.t option;
}

let default_config =
  {
    seed = 42;
    count = 100;
    oracles = Oracles.all ();
    max_stages = Gen.default_shape.Gen.max_stages;
    max_procs = Gen.default_shape.Gen.max_procs;
    workers = 1;
    perturb = 0.0;
    out_dir = None;
    obs = None;
  }

type failure = {
  f_oracle : string;
  f_case : Gen.case;
  f_message : string;
  f_minimized : Gen.case;
  f_min_message : string;
  f_steps : int;
  f_path : string option;
}

type tally = { t_oracle : string; t_pass : int; t_skip : int; t_fail : int }

type report = {
  r_config : config;
  r_tallies : tally list;
  r_failures : failure list;
}

let run config =
  let ctx = { Oracle.perturb = config.perturb } in
  let master = Rng.create config.seed in
  let shape =
    { Gen.max_stages = config.max_stages; max_procs = config.max_procs }
  in
  (* Seeds are drawn in case order from the master stream; nothing after
     this point touches it, so the case list is worker-independent. *)
  let seeds = Array.make config.count 0 in
  for i = 0 to config.count - 1 do
    seeds.(i) <- Gen.case_seed ~master
  done;
  let cases =
    Array.init config.count (fun id -> Gen.generate ~id ~seed:seeds.(id) shape)
  in
  (* Per-(case, oracle) durations, timed on a clock forked per case id and
     observed in case order after the pool drains — so the histograms are
     worker-count-independent (and fixed-tick under a virtual clock). *)
  let durs = Array.make config.count [||] in
  let check_case case =
    match config.obs with
    | None -> List.map (fun o -> (o, o.Oracle.check ctx case)) config.oracles
    | Some ob ->
        let clk = Clock.fork ob.Obs.clock case.Gen.id in
        let timed =
          List.map
            (fun o ->
              let t0 = Clock.now_ns clk in
              let r = o.Oracle.check ctx case in
              (o, r, Clock.now_ns clk - t0))
            config.oracles
        in
        (* slot case.id has exactly one writer and is read only after
           Pool.map joins its workers *)
        (* devlint: allow RP-S301 *)
        durs.(case.Gen.id) <-
          Array.of_list (List.map (fun (o, _, d) -> (o.Oracle.name, d)) timed);
        List.map (fun (o, r, _) -> (o, r)) timed
  in
  let outcomes, _stats =
    Pool.map ?obs:config.obs ~workers:(max 1 config.workers) check_case cases
  in
  Obs.add config.obs "fuzz.cases" config.count;
  Array.iter
    (Array.iter (fun (name, d) ->
         Obs.observe config.obs
           ("fuzz.oracle." ^ name ^ ".duration_ns")
           (float_of_int d)))
    durs;
  let tallies =
    List.map
      (fun o ->
        let count p =
          Array.fold_left
            (fun acc per_case ->
              List.fold_left
                (fun acc (o', outcome) ->
                  if String.equal o'.Oracle.name o.Oracle.name && p outcome then
                    acc + 1
                  else acc)
                acc per_case)
            0 outcomes
        in
        {
          t_oracle = o.Oracle.name;
          t_pass = count (function Oracle.Pass -> true | _ -> false);
          t_skip = count (function Oracle.Skip _ -> true | _ -> false);
          t_fail = count (function Oracle.Fail _ -> true | _ -> false);
        })
      config.oracles
  in
  (* Shrinking re-runs oracles, so it stays sequential, in case order. *)
  let failures = ref [] in
  Array.iteri
    (fun id per_case ->
      List.iter
        (fun (o, outcome) ->
          match outcome with
          | Oracle.Pass | Oracle.Skip _ -> ()
          | Oracle.Fail message ->
              let case = cases.(id) in
              let shrunk = Shrink.minimize o ctx case in
              let minimized = shrunk.Shrink.case in
              let min_message =
                match o.Oracle.check ctx minimized with
                | Oracle.Fail msg -> msg
                | Oracle.Pass | Oracle.Skip _ -> message
              in
              let path =
                match config.out_dir with
                | None -> None
                | Some dir ->
                    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                    let path =
                      Filename.concat dir
                        (Printf.sprintf "fuzz-%s-%d.relpipe" o.Oracle.name
                           case.Gen.seed)
                    in
                    Corpus.write ~path ~oracle:o.Oracle.name minimized;
                    Some path
              in
              failures :=
                {
                  f_oracle = o.Oracle.name;
                  f_case = case;
                  f_message = message;
                  f_minimized = minimized;
                  f_min_message = min_message;
                  f_steps = shrunk.Shrink.steps;
                  f_path = path;
                }
                :: !failures)
        per_case)
    outcomes;
  { r_config = config; r_tallies = tallies; r_failures = List.rev !failures }

let indent prefix text =
  String.concat "\n"
    (List.map
       (fun line -> if String.length line = 0 then line else prefix ^ line)
       (String.split_on_char '\n' text))

let render report =
  let c = report.r_config in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* No worker count here: the report must be byte-identical for every
     worker count. *)
  pr "relpipe fuzz: seed=%d count=%d oracles=%d shape=%dx%d" c.seed c.count
    (List.length c.oracles) c.max_stages c.max_procs;
  if not (Float.equal c.perturb 0.0) then pr " perturb=%g" c.perturb;
  pr "\n";
  let width =
    List.fold_left
      (fun acc t -> max acc (String.length t.t_oracle))
      0 report.r_tallies
  in
  List.iter
    (fun t ->
      pr "  %-*s  pass=%-4d skip=%-4d fail=%d\n" width t.t_oracle t.t_pass
        t.t_skip t.t_fail)
    report.r_tallies;
  List.iter
    (fun f ->
      pr "\nFAIL %s case=%d seed=%d\n" f.f_oracle f.f_case.Gen.id
        f.f_case.Gen.seed;
      pr "  %s\n" f.f_message;
      pr "  minimized (%d steps): %s\n" f.f_steps f.f_min_message;
      pr "%s\n"
        (indent "    " (Corpus.to_string ~oracle:f.f_oracle f.f_minimized));
      (match f.f_path with
      | Some path -> pr "  replay: relpipe fuzz --replay %s\n" path
      | None ->
          pr "  replay: save the block above and run: relpipe fuzz --replay \
              FILE\n"))
    report.r_failures;
  let failed = List.length report.r_failures in
  pr "summary: %d cases, %d oracles, %d failure%s\n" c.count
    (List.length c.oracles) failed
    (if failed = 1 then "" else "s");
  Buffer.contents buf

let list_oracles_text () =
  let oracles = Oracles.all () in
  let width =
    List.fold_left (fun acc o -> max acc (String.length o.Oracle.name)) 0 oracles
  in
  String.concat ""
    (List.map
       (fun o -> Printf.sprintf "%-*s  %s\n" width o.Oracle.name o.Oracle.doc)
       oracles)
