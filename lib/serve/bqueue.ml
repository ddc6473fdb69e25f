type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable is_closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    is_closed = false;
  }

let try_push t v =
  Mutex.lock t.mutex;
  let ok = (not t.is_closed) && Queue.length t.items < t.capacity in
  if ok then begin
    Queue.push v t.items;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mutex;
  ok

let pop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.items && not t.is_closed do
    Condition.wait t.nonempty t.mutex
  done;
  let v = Queue.take_opt t.items in
  Mutex.unlock t.mutex;
  v

let try_pop t =
  Mutex.lock t.mutex;
  let v = Queue.take_opt t.items in
  Mutex.unlock t.mutex;
  v

let close t =
  Mutex.lock t.mutex;
  t.is_closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.items in
  Mutex.unlock t.mutex;
  n

let capacity t = t.capacity
