(* Deterministic fault schedules. Decisions are pure hashes of
   (seed, message identity, decision kind), not draws from a stateful PRNG,
   so they are independent of the order the scheduler happens to evaluate
   them in — the property the determinism tests pin down. *)

type spec = {
  seed : int;
  drop_prob : float;
  max_retries : int;
  delay_prob : float;
  delay_factor : float;
  skew_max : float;
  crash_prob : float;
  crash_max : int;
}

let none =
  {
    seed = 0;
    drop_prob = 0.0;
    max_retries = 0;
    delay_prob = 0.0;
    delay_factor = 0.0;
    skew_max = 1.0;
    crash_prob = 0.0;
    crash_max = 0;
  }

(* crashes stay off by default: a crash needs the checkpoint/restart
   controller ({!Checkpoint.run}) to recover, which plain [Exec.run] does
   not provide *)
let default ~seed =
  {
    seed;
    drop_prob = 0.15;
    max_retries = 4;
    delay_prob = 0.30;
    delay_factor = 4.0;
    skew_max = 1.5;
    crash_prob = 0.0;
    crash_max = 0;
  }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate spec : (unit, string) result =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let prob name p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      Some (Printf.sprintf "%s probability %g outside [0,1]" name p)
    else None
  in
  let problems =
    List.filter_map Fun.id
      [
        (if spec.seed < 0 then
           Some (Printf.sprintf "seed %d is negative" spec.seed)
         else None);
        prob "drop" spec.drop_prob;
        prob "delay" spec.delay_prob;
        prob "crash" spec.crash_prob;
        (if spec.max_retries < 0 then
           Some (Printf.sprintf "max_retries %d is negative" spec.max_retries)
         else None);
        (if spec.delay_factor < 0.0 || Float.is_nan spec.delay_factor then
           Some (Printf.sprintf "delay_factor %g is negative" spec.delay_factor)
         else None);
        (if spec.skew_max < 1.0 || Float.is_nan spec.skew_max then
           Some
             (Printf.sprintf
                "skew_max %g < 1.0 (the skew multiplier is a slowdown factor)"
                spec.skew_max)
         else None);
        (if spec.crash_max < 0 then
           Some (Printf.sprintf "crash_max %d is negative" spec.crash_max)
         else None);
        (if spec.drop_prob > 0.0 && spec.max_retries = 0 then
           Some "drop_prob > 0 with max_retries = 0 would lose messages forever"
         else None);
      ]
  in
  match problems with
  | [] -> Ok ()
  | p :: _ -> err "invalid fault schedule: %s" p

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer: a cheap, well-mixed 64-bit avalanche *)
let mix (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let hash_keys spec (keys : int list) : int64 =
  List.fold_left
    (fun acc k -> mix (Int64.add (Int64.mul acc 0x9e3779b97f4a7c15L) (Int64.of_int k)))
    (mix (Int64.add 0x2545f4914f6cdd1dL (Int64.of_int spec.seed)))
    keys

(* uniform in [0,1) from the top 53 bits *)
let u01 (h : int64) : float =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* decision-kind salts keep draws for one message independent; a salt is
   part of every draw's hash, so none is renumbered (2 and 4 are unused) *)
let salt_drop = 1
let salt_delay = 3
let salt_skew = 5
let salt_crash = 6

let draw spec ~salt keys = u01 (hash_keys spec (salt :: keys))

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type msg_plan = { mp_drops : int; mp_delay : float }

let no_faults = { mp_drops = 0; mp_delay = 0.0 }

let plan spec ~event ~src ~dst ~seq =
  let keys = [ event; src; dst; seq ] in
  let drops =
    if spec.drop_prob <= 0.0 then 0
    else begin
      (* each transmission attempt is dropped independently, bounded by
         max_retries so every message is eventually delivered *)
      let k = ref 0 in
      while
        !k < spec.max_retries
        && draw spec ~salt:salt_drop (!k :: keys) < spec.drop_prob
      do
        incr k
      done;
      !k
    end
  in
  let delay =
    if draw spec ~salt:salt_delay keys < spec.delay_prob then
      spec.delay_factor *. draw spec ~salt:salt_delay (0 :: keys)
    else 0.0
  in
  { mp_drops = drops; mp_delay = delay }

let skew spec ~pid =
  if spec.skew_max <= 1.0 then 1.0
  else 1.0 +. ((spec.skew_max -. 1.0) *. draw spec ~salt:salt_skew [ pid ])

(* fail-stop crash decision for one (processor, operation) point: a pure
   hash like every other draw, so a replay that re-executes the same
   operations re-derives the same schedule — the recovery controller's
   consumed-crash bookkeeping (Runtime.crashctl) is what keeps an already
   fired crash from firing again during the replay *)
let crash spec ~pid ~op =
  spec.crash_prob > 0.0 && draw spec ~salt:salt_crash [ pid; op ] < spec.crash_prob

let describe spec =
  Printf.sprintf
    "seed=%d drop=%.2f(max %d retries) delay=%.2fx%.1f skew<=%.2f \
     crash=%.3f(max %d)"
    spec.seed spec.drop_prob spec.max_retries spec.delay_prob
    spec.delay_factor spec.skew_max spec.crash_prob spec.crash_max
