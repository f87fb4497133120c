package com.fix;

public class Corner {
    public void spin(int speed) {
        if (speed > 100) {
            throw new IllegalArgumentException("too fast");
        }
    }
}
