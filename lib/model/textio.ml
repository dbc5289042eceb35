module Loc = Relpipe_util.Loc

type raw_endpoint = Rin | Rout | Rproc of int

type raw_stage = {
  stage_work : float;
  stage_output : float;
  stage_span : Loc.span;
}

type raw_proc = {
  proc_speed : float;
  proc_failure : float;
  proc_span : Loc.span;
}

type raw_link = {
  link_a : raw_endpoint;
  link_b : raw_endpoint;
  link_bw : float;
  link_span : Loc.span;
}

type raw = {
  raw_input : (float * Loc.span) option;
  raw_stages : raw_stage list;
  raw_procs : raw_proc list;
  raw_default_bw : (float * Loc.span) option;
  raw_links : raw_link list;
}

type error = { message : string; span : Loc.span option }

let err ?span fmt = Format.kasprintf (fun message -> Error { message; span }) fmt

let format_error e =
  match e.span with
  | None -> e.message
  | Some span -> Format.asprintf "%a: %s" Loc.pp_span span e.message

(* ------------------------------------------------------------------ *)
(* Tokenizing                                                          *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_blank c = c = ' ' || c = '\t' || c = '\r'

(* Tokens of one line, each with its 1-based starting column. *)
let tokens_of_line line =
  let line = strip_comment line in
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_blank line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_blank line.[!j]) do
        incr j
      done;
      go !j ((String.sub line i (!j - i), i + 1) :: acc)
    end
  in
  go 0 []

let token_span ~line (tok, col) =
  Loc.span_of_cols ~line ~start_col:col ~stop_col:(col + String.length tok)

(* Span of a whole directive: first token start to last token end. *)
let directive_span ~line toks =
  match toks with
  | [] -> Loc.span_of_cols ~line ~start_col:1 ~stop_col:1
  | first :: _ ->
      let last = List.nth toks (List.length toks - 1) in
      Loc.union (token_span ~line first) (token_span ~line last)

(* ------------------------------------------------------------------ *)
(* Raw parsing                                                         *)
(* ------------------------------------------------------------------ *)

let float_of ~line (tok, col) =
  match float_of_string_opt tok with
  | Some x -> Ok x
  | None -> err ~span:(token_span ~line (tok, col)) "bad number %S" tok

let endpoint_of ~line (tok, col) =
  match tok with
  | "in" -> Ok Rin
  | "out" -> Ok Rout
  | _ -> (
      match int_of_string_opt tok with
      | Some u when u >= 0 -> Ok (Rproc u)
      | Some _ | None ->
          err ~span:(token_span ~line (tok, col))
            "bad endpoint %S (expected \"in\", \"out\" or a processor index)"
            tok)

type builder = {
  mutable input : (float * Loc.span) option;
  mutable stages : raw_stage list;  (* reversed *)
  mutable procs : raw_proc list;  (* reversed *)
  mutable default_bw : (float * Loc.span) option;
  mutable links : raw_link list;  (* reversed *)
}

let parse_raw text =
  let b =
    { input = None; stages = []; procs = []; default_bw = None; links = [] }
  in
  let ( let* ) = Result.bind in
  let parse_line line toks =
    let span = directive_span ~line toks in
    match toks with
    | [] -> Ok ()
    | [ ("input", _); x ] ->
        let* v = float_of ~line x in
        b.input <- Some (v, span);
        Ok ()
    | [ ("stage", _); w; d ] ->
        let* stage_work = float_of ~line w in
        let* stage_output = float_of ~line d in
        b.stages <- { stage_work; stage_output; stage_span = span } :: b.stages;
        Ok ()
    | [ ("proc", _); s; f ] ->
        let* proc_speed = float_of ~line s in
        let* proc_failure = float_of ~line f in
        b.procs <- { proc_speed; proc_failure; proc_span = span } :: b.procs;
        Ok ()
    | [ ("link", _); ("default", _); bw ] ->
        let* v = float_of ~line bw in
        b.default_bw <- Some (v, span);
        Ok ()
    | [ ("link", _); a; bb; bw ] ->
        let* link_a = endpoint_of ~line a in
        let* link_b = endpoint_of ~line bb in
        let* link_bw = float_of ~line bw in
        b.links <- { link_a; link_b; link_bw; link_span = span } :: b.links;
        Ok ()
    | ((("input" | "stage" | "proc" | "link") as directive), _) :: _ ->
        err ~span "wrong number of arguments for %S" directive
    | (tok, col) :: _ ->
        err ~span:(token_span ~line (tok, col)) "unknown directive %S" tok
  in
  let lines = String.split_on_char '\n' text in
  let rec parse_all lineno = function
    | [] -> Ok ()
    | line :: tl -> (
        match parse_line lineno (tokens_of_line line) with
        | Ok () -> parse_all (lineno + 1) tl
        | Error _ as e -> e)
  in
  let* () = parse_all 1 lines in
  Ok
    {
      raw_input = b.input;
      raw_stages = List.rev b.stages;
      raw_procs = List.rev b.procs;
      raw_default_bw = b.default_bw;
      raw_links = List.rev b.links;
    }

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let endpoint_of_raw ~m = function
  | Rin -> Ok Platform.Pin
  | Rout -> Ok Platform.Pout
  | Rproc u ->
      if u >= 0 && u < m then Ok (Platform.Proc u)
      else Error (Printf.sprintf "processor index %d out of range 0..%d" u (m - 1))

(* Row/column of an endpoint in the (m+2)² link table: 0 = Pin,
   1..m = processors, m+1 = Pout. *)
let endpoint_index ~m = function
  | Platform.Pin -> 0
  | Platform.Proc u -> u + 1
  | Platform.Pout -> m + 1

let build raw =
  let ( let* ) = Result.bind in
  let* input =
    match raw.raw_input with
    | Some (v, _) -> Ok v
    | None -> err "missing `input` directive"
  in
  let* () = if raw.raw_stages = [] then err "no `stage` directives" else Ok () in
  let* () = if raw.raw_procs = [] then err "no `proc` directives" else Ok () in
  let procs = Array.of_list raw.raw_procs in
  let m = Array.length procs in
  (* Explicit links in a flat table with a separate presence flag, so
     any bandwidth written (NaN included) reaches [Platform.make]'s
     checks instead of falling back to the default. *)
  let size = m + 2 in
  let bw = Array.make (size * size) 0.0 in
  let present = Array.make (size * size) false in
  let set i j v =
    bw.((i * size) + j) <- v;
    present.((i * size) + j) <- true
  in
  let* () =
    List.fold_left
      (fun acc l ->
        let* () = acc in
        let check e =
          match endpoint_of_raw ~m e with
          | Ok e -> Ok (endpoint_index ~m e)
          | Error msg -> err ~span:l.link_span "%s" msg
        in
        let* ia = check l.link_a in
        let* ib = check l.link_b in
        set ia ib l.link_bw;
        set ib ia l.link_bw;
        Ok ())
      (Ok ()) raw.raw_links
  in
  let missing = ref None in
  let bandwidth a bb =
    let k = (endpoint_index ~m a * size) + endpoint_index ~m bb in
    if present.(k) then bw.(k)
    else
      match raw.raw_default_bw with
      | Some (v, _) -> v
      | None ->
          if !missing = None then
            missing :=
              Some
                (Format.asprintf "no bandwidth for link %a-%a (and no default)"
                   Platform.pp_endpoint a Platform.pp_endpoint bb);
          1.0
  in
  let* platform =
    match
      Platform.make
        ~speeds:(Array.map (fun p -> p.proc_speed) procs)
        ~failures:(Array.map (fun p -> p.proc_failure) procs)
        ~bandwidth
    with
    | p -> ( match !missing with None -> Ok p | Some msg -> err "%s" msg)
    | exception Invalid_argument msg -> err "%s" msg
  in
  let* pipeline =
    match
      Pipeline.make ~input
        (List.map
           (fun s -> { Pipeline.work = s.stage_work; output = s.stage_output })
           raw.raw_stages)
    with
    | p -> Ok p
    | exception Invalid_argument msg -> err "%s" msg
  in
  Ok (Instance.make pipeline platform)

let parse text =
  match parse_raw text with
  | Error e -> Error (format_error e)
  | Ok raw -> (
      match build raw with
      | Error e -> Error (format_error e)
      | Ok instance -> Ok instance)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string (instance : Instance.t) =
  let buf = Buffer.create 256 in
  let pipeline = instance.Instance.pipeline in
  let platform = instance.Instance.platform in
  Buffer.add_string buf (Printf.sprintf "input %.17g\n" (Pipeline.delta pipeline 0));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "stage %.17g %.17g\n" s.Pipeline.work s.Pipeline.output))
    (Pipeline.stages pipeline);
  let m = Platform.size platform in
  for u = 0 to m - 1 do
    Buffer.add_string buf
      (Printf.sprintf "proc %.17g %.17g\n" (Platform.speed platform u)
         (Platform.failure platform u))
  done;
  let endpoints =
    (Platform.Pin :: List.map (fun u -> Platform.Proc u) (Platform.procs platform))
    @ [ Platform.Pout ]
  in
  let name = function
    | Platform.Pin -> "in"
    | Platform.Pout -> "out"
    | Platform.Proc u -> string_of_int u
  in
  let rec pairs = function
    | [] -> ()
    | a :: tl ->
        List.iter
          (fun bb ->
            Buffer.add_string buf
              (Printf.sprintf "link %s %s %.17g\n" (name a) (name bb)
                 (Platform.bandwidth platform a bb)))
          tl;
        pairs tl
  in
  pairs endpoints;
  Buffer.contents buf
