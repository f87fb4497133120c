package com.fix;

public interface Iface {
    int capacity();

    default void reserve(int n) { exbtruntime.ExbtTraceLog.dump(); /* exbt:trace */
        if (n > capacity()) {
            throw new IllegalStateException("exceeds capacity");
        }
    }
}
